#include "volume/packed_block_store.hpp"

#include <cstring>
#include <filesystem>

#include "util/error.hpp"

namespace vizcache {

namespace {
constexpr char kMagic[4] = {'V', 'Z', 'P', 'K'};
}

PackedFileBlockStore PackedFileBlockStore::write_store(
    const std::string& path, const SyntheticVolume& volume, Dims3 block_dims) {
  SyntheticBlockStore source(volume, block_dims);
  const BlockGrid& grid = source.grid();
  const VolumeDesc& desc = volume.desc;
  const usize entries =
      grid.block_count() * desc.variables * desc.timesteps;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create packed store: " + path);

  out.write(kMagic, 4);
  u64 header[8] = {desc.dims.x, desc.dims.y,     desc.dims.z, desc.variables,
                   desc.timesteps, block_dims.x, block_dims.y, block_dims.z};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  u64 entry_count = entries;
  out.write(reinterpret_cast<const char*>(&entry_count), sizeof(entry_count));

  // Offsets are relative to the start of the payload section.
  std::vector<u64> offsets(entries + 1, 0);
  usize i = 0;
  for (usize t = 0; t < desc.timesteps; ++t) {
    for (usize v = 0; v < desc.variables; ++v) {
      for (BlockId id = 0; id < grid.block_count(); ++id) {
        offsets[i + 1] = offsets[i] + grid.block_bytes(id);
        ++i;
      }
    }
  }
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(u64)));

  for (usize t = 0; t < desc.timesteps; ++t) {
    for (usize v = 0; v < desc.variables; ++v) {
      for (BlockId id = 0; id < grid.block_count(); ++id) {
        std::vector<float> payload = source.read_block(id, v, t);
        out.write(reinterpret_cast<const char*>(payload.data()),
                  static_cast<std::streamsize>(payload.size() * sizeof(float)));
      }
    }
  }
  if (!out) throw IoError("packed store write failed: " + path);
  out.close();
  return PackedFileBlockStore(path);
}

PackedFileBlockStore::ParsedHeader PackedFileBlockStore::parse_header(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw IoError("cannot open packed store: " + path);
  const auto file_bytes = static_cast<u64>(in.tellg());
  in.seekg(0);

  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw IoError("not a vizcache packed store: " + path);
  }
  u64 header[8];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  u64 entry_count = 0;
  in.read(reinterpret_cast<char*>(&entry_count), sizeof(entry_count));
  if (!in) throw IoError("truncated packed store header: " + path);

  ParsedHeader parsed;
  parsed.desc.name = std::filesystem::path(path).stem().string();
  parsed.desc.description = "packed block store";
  parsed.desc.dims = {header[0], header[1], header[2]};
  parsed.desc.variables = header[3];
  parsed.desc.timesteps = header[4];
  Dims3 block_dims{header[5], header[6], header[7]};
  // The header's counts size the offset index, and read_block indexes it
  // by (timestep, variable, block): a product that wraps would leave valid
  // indices past its end, and an index longer than the rest of the file
  // would be allocated before the short read fails.
  u64 voxels = 0;
  if (__builtin_mul_overflow(header[0], header[1], &voxels) ||
      __builtin_mul_overflow(voxels, header[2], &voxels) || voxels == 0 ||
      block_dims.x == 0 || block_dims.y == 0 || block_dims.z == 0) {
    throw IoError("packed store header has invalid dims: " + path);
  }
  parsed.grid = BlockGrid(parsed.desc.dims, block_dims);

  u64 expected = 0;
  if (__builtin_mul_overflow(u64{parsed.grid.block_count()},
                             parsed.desc.variables, &expected) ||
      __builtin_mul_overflow(expected, parsed.desc.timesteps, &expected) ||
      entry_count != expected) {
    throw IoError("packed store entry count mismatch: " + path);
  }
  const u64 index_bytes_left = file_bytes - static_cast<u64>(in.tellg());
  if (entry_count >= index_bytes_left / sizeof(u64)) {
    throw IoError("truncated packed store index: " + path);
  }
  parsed.offsets.resize(entry_count + 1);
  in.read(reinterpret_cast<char*>(parsed.offsets.data()),
          static_cast<std::streamsize>(parsed.offsets.size() * sizeof(u64)));
  if (!in) throw IoError("truncated packed store index: " + path);
  // read_block sizes its payload from the index, and callers index that
  // payload by the block's voxel extent, so every entry must span exactly
  // its block. The file size is not checked: a truncated tail fails only
  // the blocks it cuts, at read time.
  if (parsed.offsets[0] != 0) {
    throw IoError("packed store index does not start at 0: " + path);
  }
  const BlockGrid& grid = parsed.grid;
  for (usize i = 0; i < entry_count; ++i) {
    const BlockId id = static_cast<BlockId>(i % grid.block_count());
    if (parsed.offsets[i + 1] != parsed.offsets[i] + grid.block_bytes(id)) {
      throw IoError("corrupt packed store index at entry " +
                    std::to_string(i) + ": " + path);
    }
  }
  parsed.payload_start = static_cast<u64>(in.tellg());
  return parsed;
}

PackedFileBlockStore::PackedFileBlockStore(const std::string& path)
    : PackedFileBlockStore(path, parse_header(path)) {}

PackedFileBlockStore::PackedFileBlockStore(const std::string& path,
                                           ParsedHeader header)
    : path_(path),
      desc_(std::move(header.desc)),
      grid_(header.grid),
      offsets_(std::move(header.offsets)),
      payload_start_(header.payload_start) {
  file_.open(path, std::ios::binary);
  if (!file_) throw IoError("cannot open packed store: " + path);
}

usize PackedFileBlockStore::entry_index(BlockId id, usize var,
                                        usize timestep) const {
  VIZ_REQUIRE(id < grid_.block_count(), "block id out of range");
  VIZ_REQUIRE(var < desc_.variables, "variable out of range");
  VIZ_REQUIRE(timestep < desc_.timesteps, "timestep out of range");
  return (timestep * desc_.variables + var) * grid_.block_count() + id;
}

std::vector<float> PackedFileBlockStore::read_block(BlockId id, usize var,
                                                    usize timestep) const {
  const usize entry = entry_index(id, var, timestep);
  const u64 begin = offsets_[entry];
  const u64 bytes = offsets_[entry + 1] - begin;
  std::vector<float> payload(bytes / sizeof(float));

  MutexLock lock(io_mutex_);
  file_.clear();
  // analyze: allow(hot-path-io): the store IS the storage boundary — this is
  // where the hot path is allowed to touch the device (the read the cache
  // hierarchy exists to amortize).
  file_.seekg(static_cast<std::streamoff>(payload_start_ + begin));
  // analyze: allow(hot-path-io): same boundary — the positioned bulk read.
  file_.read(reinterpret_cast<char*>(payload.data()),
             static_cast<std::streamsize>(bytes));
  if (file_.gcount() != static_cast<std::streamsize>(bytes)) {
    // analyze: allow(hot-path-throw): a truncated packed read is
    // unrecoverable here; AsyncPrefetcher catches and converts to
    // note_failure/propagation.
    throw IoError("short read in packed store: " + path_);
  }
  return payload;
}

u64 PackedFileBlockStore::file_bytes() const {
  return static_cast<u64>(std::filesystem::file_size(path_));
}

}  // namespace vizcache
