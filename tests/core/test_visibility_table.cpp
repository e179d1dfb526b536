#include "core/visibility_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "volume/datasets.hpp"

namespace vizcache {
namespace {

namespace fs = std::filesystem;

BlockGrid test_grid() {
  return BlockGrid::with_target_block_count({64, 64, 64}, 512);
}

VisibilityTableSpec small_spec() {
  VisibilityTableSpec spec;
  spec.omega = {6, 12, 3, 2.5, 3.5};
  spec.vicinal_samples = 6;
  spec.view_angle_deg = 15.0;
  spec.radius_model = {15.0, 0.25, 1e-3};
  return spec;
}

TEST(VisibilityTable, EntryCountMatchesOmega) {
  BlockGrid grid = test_grid();
  VisibilityTable t = VisibilityTable::build(grid, small_spec());
  EXPECT_EQ(t.entry_count(), 6u * 12 * 3);
}

TEST(VisibilityTable, EntriesSortedUniqueAndNonEmpty) {
  BlockGrid grid = test_grid();
  VisibilityTable t = VisibilityTable::build(grid, small_spec());
  for (usize i = 0; i < t.entry_count(); ++i) {
    const auto& e = t.entry(i);
    EXPECT_FALSE(e.empty());
    EXPECT_TRUE(std::is_sorted(e.begin(), e.end()));
    EXPECT_EQ(std::adjacent_find(e.begin(), e.end()), e.end());
    for (BlockId id : e) EXPECT_LT(id, grid.block_count());
  }
}

TEST(VisibilityTable, EntryContainsExactVisibleSetOfItsSample) {
  // The vicinal union must cover the sample's own frustum (the center point
  // is always included in the vicinal ball).
  BlockGrid grid = test_grid();
  VisibilityTableSpec spec = small_spec();
  VisibilityTable t = VisibilityTable::build(grid, spec);
  BlockBoundsIndex idx(grid);
  for (usize i = 0; i < t.entry_count(); i += 17) {
    auto exact =
        idx.visible_blocks(Camera(t.sample_position(i), spec.view_angle_deg));
    const auto& entry = t.entry(i);
    EXPECT_TRUE(
        std::includes(entry.begin(), entry.end(), exact.begin(), exact.end()))
        << "entry " << i << " misses blocks of its own frustum";
  }
}

TEST(VisibilityTable, QueryReturnsNearestSampleEntry) {
  BlockGrid grid = test_grid();
  VisibilityTable t = VisibilityTable::build(grid, small_spec());
  for (usize i = 0; i < t.entry_count(); i += 29) {
    const Vec3& pos = t.sample_position(i);
    EXPECT_EQ(t.nearest_index(pos), i);
    EXPECT_EQ(&t.query(pos), &t.entry(i));
  }
}

TEST(VisibilityTable, DeterministicBuilds) {
  BlockGrid grid = test_grid();
  VisibilityTable a = VisibilityTable::build(grid, small_spec());
  VisibilityTable b = VisibilityTable::build(grid, small_spec());
  ASSERT_EQ(a.entry_count(), b.entry_count());
  for (usize i = 0; i < a.entry_count(); ++i) {
    EXPECT_EQ(a.entry(i), b.entry(i));
  }
}

TEST(VisibilityTable, ThreadedBuildMatchesSerial) {
  BlockGrid grid = test_grid();
  VisibilityTable serial = VisibilityTable::build(grid, small_spec());
  ThreadPool pool(4);
  VisibilityTable parallel =
      VisibilityTable::build(grid, small_spec(), nullptr, &pool);
  ASSERT_EQ(serial.entry_count(), parallel.entry_count());
  for (usize i = 0; i < serial.entry_count(); ++i) {
    EXPECT_EQ(serial.entry(i), parallel.entry(i)) << "entry " << i;
  }
}

TEST(VisibilityTable, LargerRadiusPredictsMore) {
  BlockGrid grid = test_grid();
  VisibilityTableSpec narrow = small_spec();
  narrow.fixed_radius = 0.02;
  VisibilityTableSpec wide = small_spec();
  wide.fixed_radius = 0.5;
  VisibilityTable tn = VisibilityTable::build(grid, narrow);
  VisibilityTable tw = VisibilityTable::build(grid, wide);
  EXPECT_GT(tw.mean_entry_size(), tn.mean_entry_size());
}

TEST(VisibilityTable, ImportanceTrimCapsEntrySize) {
  BlockGrid grid = test_grid();
  SyntheticBlockStore store(make_flame_volume("f", {64, 64, 64}),
                            grid.block_dims());
  ImportanceTable imp = ImportanceTable::build(store, 64);
  VisibilityTableSpec spec = small_spec();
  spec.fixed_radius = 0.5;  // strong over-prediction
  spec.max_blocks_per_entry = 40;
  VisibilityTable t = VisibilityTable::build(grid, spec, &imp);
  EXPECT_LE(t.max_entry_size(), 40u);
  // Trimmed entries keep the *most important* blocks: every kept block's
  // entropy must be >= the entropy of any dropped block... spot-check by
  // comparing against the untrimmed union.
  VisibilityTableSpec full = spec;
  full.max_blocks_per_entry.reset();
  VisibilityTable tf = VisibilityTable::build(grid, full);
  const auto& trimmed = t.entry(0);
  const auto& complete = tf.entry(0);
  if (complete.size() > 40) {
    double min_kept = 1e18;
    for (BlockId id : trimmed) min_kept = std::min(min_kept, imp.entropy(id));
    usize better_dropped = 0;
    for (BlockId id : complete) {
      if (std::find(trimmed.begin(), trimmed.end(), id) == trimmed.end() &&
          imp.entropy(id) > min_kept + 1e-12) {
        ++better_dropped;
      }
    }
    EXPECT_EQ(better_dropped, 0u);
  }
}

TEST(VisibilityTable, TrimWithoutImportanceThrows) {
  BlockGrid grid = test_grid();
  VisibilityTableSpec spec = small_spec();
  spec.max_blocks_per_entry = 10;
  EXPECT_THROW(VisibilityTable::build(grid, spec), InvalidArgument);
}

TEST(VisibilityTable, PathStepFloorGrowsEntries) {
  BlockGrid grid = test_grid();
  VisibilityTableSpec base = small_spec();
  VisibilityTableSpec stepped = small_spec();
  stepped.path_step_deg = 20.0;
  VisibilityTable tb = VisibilityTable::build(grid, base);
  VisibilityTable ts = VisibilityTable::build(grid, stepped);
  EXPECT_GT(ts.mean_entry_size(), tb.mean_entry_size());
}

TEST(VisibilityTable, LookupCostScalesWithEntries) {
  BlockGrid grid = test_grid();
  VisibilityTableSpec spec = small_spec();
  VisibilityTable small = VisibilityTable::build(grid, spec);
  spec.omega = {12, 24, 3, 2.5, 3.5};
  VisibilityTable large = VisibilityTable::build(grid, spec);
  LookupCostModel cost;
  EXPECT_GT(large.lookup_time(cost), small.lookup_time(cost));
}

TEST(VisibilityTable, SaveLoadRoundTrip) {
  BlockGrid grid = test_grid();
  VisibilityTable t = VisibilityTable::build(grid, small_spec());
  std::string path =
      (fs::temp_directory_path() / "vizcache_vt_test.bin").string();
  t.save(path);
  VisibilityTable loaded = VisibilityTable::load(path);
  ASSERT_EQ(loaded.entry_count(), t.entry_count());
  for (usize i = 0; i < t.entry_count(); i += 7) {
    EXPECT_EQ(loaded.entry(i), t.entry(i));
  }
  // The lattice-based query must still work after load.
  Vec3 pos = t.sample_position(5);
  EXPECT_EQ(loaded.nearest_index(pos), 5u);
  fs::remove(path);
}

TEST(VisibilityTable, LoadMissingFileThrows) {
  EXPECT_THROW(VisibilityTable::load("/nonexistent/vt.bin"), IoError);
}

/// A table file laid out as save() writes it, field by field: the lattice
/// {theta, phi, distance} steps, the distance range, then `n` entries with
/// empty block lists.
std::string write_table_file(const std::string& name, u64 theta, u64 phi,
                             u64 distance, double distance_min,
                             double distance_max, u64 n) {
  const std::string path = (fs::temp_directory_path() / name).string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const u64 lattice[3] = {theta, phi, distance};
  out.write(reinterpret_cast<const char*>(lattice), sizeof(lattice));
  const double scal[4] = {distance_min, distance_max, 15.0, 6.0};
  out.write(reinterpret_cast<const char*>(scal), sizeof(scal));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  const Vec3 position{0.0, 0.0, 3.0};
  const u64 blocks = 0;
  for (u64 i = 0; i < n; ++i) {
    out.write(reinterpret_cast<const char*>(&position), sizeof(position));
    out.write(reinterpret_cast<const char*>(&blocks), sizeof(blocks));
  }
  return path;
}

TEST(VisibilityTable, LoadRejectsEmptyLatticeDimension) {
  // phi_steps == 0 would make every query divide by zero.
  const std::string path =
      write_table_file("vizcache_vt_zero_phi.bin", 2, 0, 1, 2.5, 3.5, 0);
  EXPECT_THROW(VisibilityTable::load(path), IoError);
  fs::remove(path);
}

TEST(VisibilityTable, LoadRejectsInvalidDistanceRange) {
  const std::string path =
      write_table_file("vizcache_vt_bad_range.bin", 1, 1, 1, 3.5, 2.5, 1);
  EXPECT_THROW(VisibilityTable::load(path), IoError);
  fs::remove(path);
}

TEST(VisibilityTable, LoadRejectsLatticeLargerThanEntries) {
  const std::string fits =
      write_table_file("vizcache_vt_fits.bin", 1, 1, 1, 2.5, 3.5, 1);
  EXPECT_EQ(VisibilityTable::load(fits).entry_count(), 1u);
  fs::remove(fits);
  // A 2x2x2 lattice over one entry: query() would index past entries_.
  const std::string path =
      write_table_file("vizcache_vt_short.bin", 2, 2, 2, 2.5, 3.5, 1);
  EXPECT_THROW(VisibilityTable::load(path), IoError);
  fs::remove(path);
}

TEST(VisibilityTable, LoadRejectsOverflowingLattice) {
  // 2^32 * 2^32 * 1 wraps to 0 in 64 bits, the file's entry count.
  const u64 big = u64{1} << 32;
  const std::string path =
      write_table_file("vizcache_vt_wrap.bin", big, big, 1, 2.5, 3.5, 0);
  EXPECT_THROW(VisibilityTable::load(path), IoError);
  fs::remove(path);
}

TEST(VisibilityTable, LoadRejectsCountsLargerThanFile) {
  // Counts that size vectors before their bytes are read. Each is above
  // the vector's max_size(), so none of them allocates.
  const auto patch = [](const std::string& path, u64 offset, u64 value) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
    ASSERT_TRUE(f.good());
  };
  // The entry count follows the lattice and the four scalars.
  constexpr u64 kCountOffset = 3 * sizeof(u64) + 4 * sizeof(double);
  // A valid 2^31 x 2^31 x 1 lattice promising 2^62 entries.
  const u64 half = u64{1} << 31;
  const std::string lattice =
      write_table_file("vizcache_vt_huge_lattice.bin", half, half, 1, 2.5,
                       3.5, 0);
  patch(lattice, kCountOffset, u64{1} << 62);
  EXPECT_THROW(VisibilityTable::load(lattice), IoError);
  fs::remove(lattice);
  // One entry whose block list promises 2^62 ids.
  const std::string entry =
      write_table_file("vizcache_vt_huge_entry.bin", 1, 1, 1, 2.5, 3.5, 1);
  patch(entry, kCountOffset + sizeof(u64) + sizeof(Vec3), u64{1} << 62);
  EXPECT_THROW(VisibilityTable::load(entry), IoError);
  fs::remove(entry);
}

TEST(VisibilityTable, ZeroVicinalSamplesThrows) {
  BlockGrid grid = test_grid();
  VisibilityTableSpec spec = small_spec();
  spec.vicinal_samples = 0;
  EXPECT_THROW(VisibilityTable::build(grid, spec), InvalidArgument);
}

}  // namespace
}  // namespace vizcache
