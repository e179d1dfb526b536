#include "core/query.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace vizcache {

RegionQuery::RegionQuery(std::vector<RangeClause> clauses)
    : clauses_(std::move(clauses)) {
  for (const RangeClause& c : clauses_) {
    VIZ_REQUIRE(c.lo <= c.hi, "inverted range clause");
  }
}

RegionQuery RegionQuery::iso_surface(usize var, float value, float eps) {
  VIZ_REQUIRE(eps >= 0.0f, "negative iso epsilon");
  return RegionQuery({{var, value - eps, value + eps}});
}

RegionQuery RegionQuery::range(usize var, float lo, float hi) {
  return RegionQuery({{var, lo, hi}});
}

RegionQuery& RegionQuery::and_range(usize var, float lo, float hi) {
  VIZ_REQUIRE(lo <= hi, "inverted range clause");
  clauses_.push_back({var, lo, hi});
  return *this;
}

bool RegionQuery::may_match(const BlockMetadataTable& metadata,
                            BlockId id) const {
  for (const RangeClause& c : clauses_) {
    if (!metadata.intersects_range(id, c.var, c.lo, c.hi)) return false;
  }
  return true;
}

std::vector<BlockId> RegionQuery::candidate_blocks(
    const BlockMetadataTable& metadata) const {
  std::vector<BlockId> out;
  for (BlockId id = 0; id < metadata.block_count(); ++id) {
    if (may_match(metadata, id)) out.push_back(id);
  }
  return out;
}

std::string RegionQuery::to_string() const {
  if (clauses_.empty()) return "match-all";
  std::ostringstream os;
  for (usize i = 0; i < clauses_.size(); ++i) {
    if (i) os << " AND ";
    os << "v" << clauses_[i].var << " in [" << clauses_[i].lo << ", "
       << clauses_[i].hi << "]";
  }
  return os.str();
}

std::vector<RegionQuery> queries_from_transfer_function(
    const TransferFunction& tf, usize var, float opacity_threshold) {
  VIZ_REQUIRE(opacity_threshold >= 0.0f, "negative opacity threshold");
  const auto& pts = tf.points();
  VIZ_CHECK(!pts.empty(), "empty transfer function");

  // Build the piecewise-linear opacity graph over [0, 1], including the
  // clamped flats before the first and after the last control point.
  std::vector<std::pair<float, float>> graph;  // (value, alpha)
  graph.emplace_back(0.0f, pts.front().color.a);
  for (const auto& p : pts) {
    float v = std::clamp(p.value, 0.0f, 1.0f);
    graph.emplace_back(v, p.color.a);
  }
  graph.emplace_back(1.0f, pts.back().color.a);

  // Exact intervals where alpha(v) > threshold.
  std::vector<std::pair<float, float>> intervals;
  auto add = [&](float lo, float hi) {
    if (hi < lo) std::swap(lo, hi);
    if (!intervals.empty() && lo <= intervals.back().second + 1e-7f) {
      intervals.back().second = std::max(intervals.back().second, hi);
    } else {
      intervals.emplace_back(lo, hi);
    }
  };
  const float thr = opacity_threshold;
  for (usize i = 1; i < graph.size(); ++i) {
    auto [v0, a0] = graph[i - 1];
    auto [v1, a1] = graph[i];
    if (v1 < v0) std::swap(v0, v1), std::swap(a0, a1);
    bool above0 = a0 > thr;
    bool above1 = a1 > thr;
    if (!above0 && !above1) continue;
    if (above0 && above1) {
      add(v0, v1);
      continue;
    }
    // One crossing inside the segment.
    float t = (thr - a0) / (a1 - a0);
    float vc = v0 + t * (v1 - v0);
    if (above0) {
      add(v0, vc);
    } else {
      add(vc, v1);
    }
  }

  std::vector<RegionQuery> out;
  out.reserve(intervals.size());
  for (auto [lo, hi] : intervals) {
    out.push_back(RegionQuery::range(var, lo, hi));
  }
  return out;
}

bool tf_may_need_block(const std::vector<RegionQuery>& tf_queries,
                       const BlockMetadataTable& metadata, BlockId id) {
  for (const RegionQuery& q : tf_queries) {
    if (q.may_match(metadata, id)) return true;
  }
  return false;
}

std::vector<BlockId> query_visible_blocks(const Camera& camera,
                                          const BlockBoundsIndex& bounds,
                                          const BlockMetadataTable& metadata,
                                          const RegionQuery& query) {
  VIZ_REQUIRE(metadata.block_count() == bounds.block_count(),
              "metadata/grid block count mismatch");
  std::vector<BlockId> out = bounds.visible_blocks(camera);
  std::erase_if(out, [&](BlockId id) { return !query.may_match(metadata, id); });
  return out;
}

QuerySchedule::QuerySchedule(std::vector<QueryChange> changes)
    : changes_(std::move(changes)) {
  std::stable_sort(changes_.begin(), changes_.end(),
                   [](const QueryChange& a, const QueryChange& b) {
                     return a.step < b.step;
                   });
}

const RegionQuery& QuerySchedule::active_at(usize step) const {
  const RegionQuery* active = &match_all_;
  for (const QueryChange& c : changes_) {
    if (c.step > step) break;
    active = &c.query;
  }
  return *active;
}

}  // namespace vizcache
