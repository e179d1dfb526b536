#include "core/visibility_table.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "geom/camera.hpp"
#include "util/error.hpp"

namespace vizcache {

VisibilityTable VisibilityTable::build(const BlockGrid& grid,
                                       const VisibilityTableSpec& spec,
                                       const ImportanceTable* importance,
                                       ThreadPool* pool) {
  VIZ_REQUIRE(!spec.max_blocks_per_entry || importance,
              "entry trimming requires an importance table");
  VIZ_REQUIRE(spec.vicinal_samples >= 1, "need at least one vicinal sample");

  VisibilityTable table;
  table.spec_ = spec;
  table.positions_ = sample_omega_positions(spec.omega);
  table.entries_.resize(table.positions_.size());

  BlockBoundsIndex bounds(grid);

  auto build_entry = [&](usize index) {
    const Vec3& v = table.positions_[index];
    double d = v.norm();
    double r;
    if (spec.fixed_radius) {
      r = *spec.fixed_radius;
    } else {
      // Chord length of one path step at this view distance.
      double step_len =
          2.0 * d * std::sin(deg_to_rad(spec.path_step_deg) * 0.5);
      r = spec.radius_model.radius_with_step_floor(d, step_len);
    }
    // Deterministic per-entry stream: independent of build order/threading.
    Rng rng(spec.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    std::vector<Vec3> points =
        sample_vicinal_ball(v, r, spec.vicinal_samples, rng);

    std::vector<u8> mask(grid.block_count(), 0);
    for (const Vec3& p : points) {
      bounds.mark_visible(Camera(p, spec.view_angle_deg), mask);
    }
    std::vector<BlockId>& entry = table.entries_[index];
    for (BlockId id = 0; id < mask.size(); ++id) {
      if (mask[id]) entry.push_back(id);
    }
    if (spec.max_blocks_per_entry && entry.size() > *spec.max_blocks_per_entry) {
      // Keep the most important blocks only (Section IV-C refinement).
      std::stable_sort(entry.begin(), entry.end(),
                       [&](BlockId a, BlockId b) {
                         return importance->entropy(a) > importance->entropy(b);
                       });
      entry.resize(*spec.max_blocks_per_entry);
      std::sort(entry.begin(), entry.end());
    }
  };

  // Entries are independent and deterministic (per-entry RNG stream), so the
  // chunked loop gives the same table regardless of pool size.
  parallel_for(pool, 0, table.positions_.size(), 1, [&](usize lo, usize hi) {
    for (usize i = lo; i < hi; ++i) build_entry(i);
  });
  return table;
}

usize VisibilityTable::nearest_index(const Vec3& camera_position) const {
  return nearest_omega_index(spec_.omega, camera_position);
}

const std::vector<BlockId>& VisibilityTable::query(
    const Vec3& camera_position) const {
  return entries_[nearest_index(camera_position)];
}

const std::vector<BlockId>& VisibilityTable::entry(usize index) const {
  VIZ_REQUIRE(index < entries_.size(), "entry index out of range");
  return entries_[index];
}

const Vec3& VisibilityTable::sample_position(usize index) const {
  VIZ_REQUIRE(index < positions_.size(), "sample index out of range");
  return positions_[index];
}

double VisibilityTable::mean_entry_size() const {
  if (entries_.empty()) return 0.0;
  u64 total = 0;
  for (const auto& e : entries_) total += e.size();
  return static_cast<double>(total) / static_cast<double>(entries_.size());
}

usize VisibilityTable::max_entry_size() const {
  usize m = 0;
  for (const auto& e : entries_) m = std::max(m, e.size());
  return m;
}

void VisibilityTable::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open visibility table for writing: " + path);
  // Header: the lattice spec (required to reconstruct the O(1) lookup) and
  // the view angle.
  u64 lattice[3] = {spec_.omega.theta_steps, spec_.omega.phi_steps,
                    spec_.omega.distance_steps};
  out.write(reinterpret_cast<const char*>(lattice), sizeof(lattice));
  double scal[4] = {spec_.omega.distance_min, spec_.omega.distance_max,
                    spec_.view_angle_deg,
                    static_cast<double>(spec_.vicinal_samples)};
  out.write(reinterpret_cast<const char*>(scal), sizeof(scal));
  u64 n = entries_.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (usize i = 0; i < entries_.size(); ++i) {
    const Vec3& p = positions_[i];
    out.write(reinterpret_cast<const char*>(&p), sizeof(p));
    u64 m = entries_[i].size();
    out.write(reinterpret_cast<const char*>(&m), sizeof(m));
    out.write(reinterpret_cast<const char*>(entries_[i].data()),
              static_cast<std::streamsize>(m * sizeof(BlockId)));
  }
  if (!out) throw IoError("visibility table write failed: " + path);
}

VisibilityTable VisibilityTable::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw IoError("cannot open visibility table: " + path);
  const auto file_bytes = static_cast<u64>(in.tellg());
  in.seekg(0);
  VisibilityTable table;
  u64 lattice[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(lattice), sizeof(lattice));
  double scal[4] = {0, 0, 0, 0};
  in.read(reinterpret_cast<char*>(scal), sizeof(scal));
  table.spec_.omega.theta_steps = lattice[0];
  table.spec_.omega.phi_steps = lattice[1];
  table.spec_.omega.distance_steps = lattice[2];
  table.spec_.omega.distance_min = scal[0];
  table.spec_.omega.distance_max = scal[1];
  table.spec_.view_angle_deg = scal[2];
  table.spec_.vicinal_samples = static_cast<usize>(scal[3]);
  u64 n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) throw IoError("visibility table read failed: " + path);
  // query() indexes entries_ through the lattice, so the lattice must be one
  // build() accepts and must number exactly the file's entries.
  const OmegaSamplingSpec& omega = table.spec_.omega;
  if (lattice[0] == 0 || lattice[1] == 0 || lattice[2] == 0 ||
      !(omega.distance_min > 0.0 && omega.distance_max >= omega.distance_min)) {
    throw IoError("visibility table has an invalid sampling lattice: " + path);
  }
  u64 lattice_size = 0;
  if (__builtin_mul_overflow(lattice[0], lattice[1], &lattice_size) ||
      __builtin_mul_overflow(lattice_size, lattice[2], &lattice_size) ||
      lattice_size != n) {
    throw IoError("visibility table lattice does not match its " +
                  std::to_string(n) + " entries: " + path);
  }
  // The counts size vectors before their bytes are read: each must fit in
  // what is left of the file, or a corrupt one would allocate (or throw
  // length_error) instead of failing the load.
  constexpr u64 kHeaderBytes = 3 * sizeof(u64) + 4 * sizeof(double) +
                               sizeof(u64);
  constexpr u64 kEntryHeaderBytes = sizeof(Vec3) + sizeof(u64);
  u64 bytes_left = file_bytes - kHeaderBytes;
  if (n > bytes_left / kEntryHeaderBytes) {
    throw IoError("visibility table promises more entries than the file "
                  "holds: " + path);
  }
  bytes_left -= n * kEntryHeaderBytes;
  table.positions_.resize(n);
  table.entries_.resize(n);
  for (usize i = 0; i < n; ++i) {
    in.read(reinterpret_cast<char*>(&table.positions_[i]),
            sizeof(table.positions_[i]));
    u64 m = 0;
    in.read(reinterpret_cast<char*>(&m), sizeof(m));
    if (m > bytes_left / sizeof(BlockId)) {
      throw IoError("visibility table entry " + std::to_string(i) +
                    " promises more blocks than the file holds: " + path);
    }
    bytes_left -= m * sizeof(BlockId);
    table.entries_[i].resize(m);
    in.read(reinterpret_cast<char*>(table.entries_[i].data()),
            static_cast<std::streamsize>(m * sizeof(BlockId)));
  }
  if (!in) throw IoError("visibility table read failed: " + path);
  return table;
}

}  // namespace vizcache
