#include "storage/hierarchy.hpp"

#include "util/error.hpp"

namespace vizcache {

double HierarchyStats::fast_miss_rate() const {
  if (level.empty()) return 0.0;
  return level.front().miss_rate();
}

double HierarchyStats::total_miss_rate() const {
  u64 lookups = 0, misses = 0;
  for (const CacheStats& s : level) {
    lookups += s.lookups();
    misses += s.misses;
  }
  return lookups ? static_cast<double>(misses) / static_cast<double>(lookups)
                 : 0.0;
}

HierarchyStats& HierarchyStats::operator+=(const HierarchyStats& other) {
  VIZ_REQUIRE(level_names == other.level_names &&
                  level.size() == other.level.size(),
              "only stats of hierarchies with the same levels add up");
  for (usize i = 0; i < level.size(); ++i) level[i] += other.level[i];
  demand_backing_reads += other.demand_backing_reads;
  demand_backing_bytes += other.demand_backing_bytes;
  prefetch_backing_reads += other.prefetch_backing_reads;
  prefetch_backing_bytes += other.prefetch_backing_bytes;
  demand_io_time += other.demand_io_time;
  prefetch_time += other.prefetch_time;
  demand_requests += other.demand_requests;
  prefetch_requests += other.prefetch_requests;
  return *this;
}

void report_metrics(const HierarchyStats& stats, const std::string& prefix,
                    MetricsSnapshot& out) {
  VIZ_REQUIRE(stats.level_names.size() == stats.level.size(),
              "every level of the stats needs a name");
  out.add_counter(prefix + ".demand.requests", stats.demand_requests);
  out.add_counter(prefix + ".prefetch.requests", stats.prefetch_requests);
  out.add_counter(prefix + ".demand.backing_reads", stats.demand_backing_reads);
  out.add_counter(prefix + ".demand.backing_bytes", stats.demand_backing_bytes);
  out.add_counter(prefix + ".prefetch.backing_reads",
                  stats.prefetch_backing_reads);
  out.add_counter(prefix + ".prefetch.backing_bytes",
                  stats.prefetch_backing_bytes);
  out.add_gauge(prefix + ".demand.io_seconds", stats.demand_io_time);
  out.add_gauge(prefix + ".prefetch.io_seconds", stats.prefetch_time);
  for (usize i = 0; i < stats.level.size(); ++i) {
    std::string name = stats.level_names[i];
    for (char& c : name) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    report_metrics(stats.level[i], "cache." + name, out);
  }
}

MemoryHierarchy::MemoryHierarchy(std::vector<LevelSpec> specs,
                                 DeviceModel backing, SizeFn block_size)
    : backing_(std::move(backing)), block_size_(std::move(block_size)) {
  VIZ_REQUIRE(!specs.empty(), "hierarchy needs at least one cache level");
  VIZ_REQUIRE(block_size_ != nullptr, "hierarchy needs a block size function");
  levels_.reserve(specs.size());
  for (LevelSpec& spec : specs) {
    // Policies that track queue capacities are sized in nominal blocks.
    usize cap_blocks = static_cast<usize>(
        spec.capacity_bytes / std::max<u64>(1, block_size_(0)));
    levels_.push_back({spec.name, spec.device,
                       std::make_unique<BlockCache>(
                           spec.capacity_bytes,
                           make_policy(spec.policy, std::max<usize>(1, cap_blocks)),
                           block_size_)});
  }
}

MemoryHierarchy MemoryHierarchy::paper_testbed(u64 dataset_bytes,
                                               double cache_ratio,
                                               PolicyKind policy,
                                               SizeFn block_size) {
  VIZ_REQUIRE(cache_ratio > 0.0 && cache_ratio <= 1.0,
              "cache ratio must be in (0, 1]");
  VIZ_REQUIRE(dataset_bytes > 0, "empty dataset");
  u64 ssd_bytes = static_cast<u64>(static_cast<double>(dataset_bytes) * cache_ratio);
  u64 dram_bytes = static_cast<u64>(static_cast<double>(ssd_bytes) * cache_ratio);
  std::vector<LevelSpec> specs{
      {"DRAM", dram_device(), std::max<u64>(1, dram_bytes), policy},
      {"SSD", ssd_device(), std::max<u64>(1, ssd_bytes), policy},
  };
  return MemoryHierarchy(std::move(specs), hdd_device(), std::move(block_size));
}

const std::string& MemoryHierarchy::level_name(usize level) const {
  VIZ_REQUIRE(level < levels_.size(), "level out of range");
  return levels_[level].name;
}

BlockCache& MemoryHierarchy::cache(usize level) {
  VIZ_REQUIRE(level < levels_.size(), "level out of range");
  return *levels_[level].cache;
}

const BlockCache& MemoryHierarchy::cache(usize level) const {
  VIZ_REQUIRE(level < levels_.size(), "level out of range");
  return *levels_[level].cache;
}

SimSeconds MemoryHierarchy::fetch_internal(BlockId id, u64 step, bool demand,
                                           u64 protect_floor) {
  const u64 bytes = block_size_(id);
  // Find the fastest level already holding the block. The probe doubles as
  // the access touch (one hash lookup instead of contains() + touch()); the
  // serving level is always touched on this path, so fusing is safe.
  usize found = levels_.size();  // == backing store
  for (usize i = 0; i < levels_.size(); ++i) {
    if (levels_[i].cache->touch_if_resident(id, step)) {
      found = i;
      break;
    }
  }

  // Demand accounting: a lookup happens at every level down to (and
  // including) the one that serves the read.
  if (demand) {
    for (usize i = 0; i < levels_.size(); ++i) {
      if (i < found) {
        levels_[i].cache->note_miss();
      } else if (i == found) {
        levels_[i].cache->note_hit();
        break;
      }
    }
  }
  // The backing device does the read either way — a prefetch miss moves the
  // same bytes over the same bus as a demand miss. Only the attribution
  // differs, so the read is counted under the cause that triggered it.
  if (found == levels_.size()) {
    if (demand) {
      ++stats_.demand_backing_reads;
      stats_.demand_backing_bytes += bytes;
    } else {
      ++stats_.prefetch_backing_reads;
      stats_.prefetch_backing_bytes += bytes;
    }
  }

  SimSeconds cost;
  if (found == levels_.size()) {
    cost = backing_.transfer_time(bytes);
  } else if (found == 0) {
    // Already fastest-resident (and touched by the probe above); cost is the
    // fast device's access time (negligible but nonzero).
    return demand ? levels_[0].device.transfer_time(bytes) : 0.0;
  } else {
    cost = levels_[found].device.transfer_time(bytes);
  }

  // Promote into all faster levels (staged placement HDD -> SSD -> DRAM).
  for (usize i = found; i-- > 0;) {
    levels_[i].cache->insert(id, step, protect_floor);
  }
  return cost;
}

SimSeconds MemoryHierarchy::fetch(BlockId id, u64 step, u64 protect_floor) {
  ++stats_.demand_requests;
  SimSeconds t = fetch_internal(id, step, /*demand=*/true, protect_floor);
  stats_.demand_io_time += t;
  return t;
}

SimSeconds MemoryHierarchy::prefetch(BlockId id, u64 step, u64 protect_floor) {
  // A prefetch of a fastest-resident block must still refresh its protection
  // timestamp: the predictor just said the block matters for step `step`, so
  // leaving last_use at an older step would let the very next demand insert
  // evict it. touch_if_resident fuses the residency probe and the refresh
  // into one hash lookup.
  if (levels_.front().cache->touch_if_resident(id, step)) return 0.0;
  ++stats_.prefetch_requests;
  SimSeconds t = fetch_internal(id, step, /*demand=*/false, protect_floor);
  stats_.prefetch_time += t;
  return t;
}

void MemoryHierarchy::preload(BlockId id) {
  for (usize i = levels_.size(); i-- > 0;) {
    levels_[i].cache->insert(id, 0);
  }
}

HierarchyStats MemoryHierarchy::stats() const {
  HierarchyStats out = stats_;
  out.level_names.reserve(levels_.size());
  out.level.reserve(levels_.size());
  for (const Level& l : levels_) {
    out.level_names.push_back(l.name);
    out.level.push_back(l.cache->stats());
  }
  return out;
}

void MemoryHierarchy::reset() {
  for (auto& l : levels_) {
    l.cache->clear();
    l.cache->policy().reset();
    l.cache->reset_stats();
  }
  stats_ = {};
}

}  // namespace vizcache
