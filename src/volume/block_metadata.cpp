#include "volume/block_metadata.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "util/error.hpp"

namespace vizcache {

BlockMetadataTable BlockMetadataTable::build(const BlockStore& store,
                                             usize variables, usize timestep) {
  if (variables == 0) variables = store.desc().variables;
  VIZ_REQUIRE(variables <= store.desc().variables,
              "more variables requested than the dataset has");

  BlockMetadataTable table;
  table.blocks_ = store.grid().block_count();
  table.variables_ = variables;
  table.entries_.resize(table.blocks_ * variables);

  for (usize var = 0; var < variables; ++var) {
    for (BlockId id = 0; id < table.blocks_; ++id) {
      std::vector<float> payload = store.read_block(id, var, timestep);
      Entry e;
      e.min = std::numeric_limits<float>::infinity();
      e.max = -std::numeric_limits<float>::infinity();
      double sum = 0.0;
      for (float v : payload) {
        e.min = std::min(e.min, v);
        e.max = std::max(e.max, v);
        sum += static_cast<double>(v);
      }
      e.mean = payload.empty()
                   ? 0.0f
                   : static_cast<float>(sum / static_cast<double>(payload.size()));
      if (payload.empty()) e.min = e.max = 0.0f;
      table.entries_[var * table.blocks_ + id] = e;
    }
  }
  return table;
}

const BlockMetadataTable::Entry& BlockMetadataTable::entry(BlockId id,
                                                           usize var) const {
  VIZ_REQUIRE(id < blocks_, "block id out of range");
  VIZ_REQUIRE(var < variables_, "variable out of range");
  return entries_[var * blocks_ + id];
}

bool BlockMetadataTable::intersects_range(BlockId id, usize var, float lo,
                                          float hi) const {
  const Entry& e = entry(id, var);
  return e.min <= hi && e.max >= lo;
}

void BlockMetadataTable::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open metadata table for writing: " + path);
  u64 header[2] = {blocks_, variables_};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(entries_.data()),
            static_cast<std::streamsize>(entries_.size() * sizeof(Entry)));
  if (!out) throw IoError("metadata table write failed: " + path);
}

BlockMetadataTable BlockMetadataTable::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw IoError("cannot open metadata table: " + path);
  const auto file_bytes = static_cast<u64>(in.tellg());
  in.seekg(0);
  u64 header[2] = {0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) throw IoError("metadata table read failed: " + path);
  // The header sizes the entry vector: a count that wraps, or that the
  // file's bytes cannot hold, would leave entry() reading past the end.
  u64 count = 0;
  if (__builtin_mul_overflow(header[0], header[1], &count) ||
      count > (file_bytes - sizeof(header)) / sizeof(Entry)) {
    throw IoError("metadata table header promises more entries than the "
                  "file holds: " + path);
  }
  BlockMetadataTable table;
  table.blocks_ = header[0];
  table.variables_ = header[1];
  table.entries_.resize(count);
  in.read(reinterpret_cast<char*>(table.entries_.data()),
          static_cast<std::streamsize>(table.entries_.size() * sizeof(Entry)));
  if (!in) throw IoError("metadata table read failed: " + path);
  return table;
}

}  // namespace vizcache
