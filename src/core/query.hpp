#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/visibility.hpp"
#include "render/transfer_function.hpp"
#include "volume/block_metadata.hpp"

namespace vizcache {

/// A value-range predicate on one variable: "variable `var` has values in
/// [lo, hi] somewhere in the block". An iso-surface at value v is the band
/// [v-eps, v+eps]; a transfer function that maps [lo, hi] to non-zero
/// opacity is the same predicate (paper Section III-A: data-dependent
/// operations driven by transfer functions and query-based visualization).
struct RangeClause {
  usize var = 0;
  float lo = 0.0f;
  float hi = 1.0f;
};

/// Conjunction of range clauses over possibly different variables — the
/// paper's "combination of numerous queries based on possibly complex
/// functions of the primary variables" (e.g. smoke-contaminated AND
/// high-wind regions of the climate data). An empty query matches every
/// block.
class RegionQuery {
 public:
  RegionQuery() = default;
  explicit RegionQuery(std::vector<RangeClause> clauses);

  /// Convenience: iso-surface band query on one variable.
  static RegionQuery iso_surface(usize var, float value, float eps = 0.02f);

  /// Convenience: single range clause.
  static RegionQuery range(usize var, float lo, float hi);

  /// AND another clause onto this query.
  RegionQuery& and_range(usize var, float lo, float hi);

  const std::vector<RangeClause>& clauses() const { return clauses_; }
  bool empty() const { return clauses_.empty(); }

  /// Conservative block test via min/max metadata: true when the block MAY
  /// contain matching voxels (never false negatives).
  bool may_match(const BlockMetadataTable& metadata, BlockId id) const;

  /// All blocks that may match, ascending.
  std::vector<BlockId> candidate_blocks(const BlockMetadataTable& metadata) const;

  std::string to_string() const;

 private:
  std::vector<RangeClause> clauses_;
};

/// Invert a piecewise-linear transfer function into a block query: the
/// union of value intervals where opacity exceeds `opacity_threshold`,
/// returned as one enclosing range clause per contiguous interval on
/// variable `var`. Blocks outside every interval cannot contribute a
/// visible sample, so they need not be staged. (The paper notes transfer
/// functions are "typically a priori unknown and not easily invertible" —
/// for the piecewise-linear TFs actually used in practice this inversion is
/// exact.) Since RegionQuery is a conjunction, the union is returned as a
/// list of queries — a block is needed if ANY of them may match.
std::vector<RegionQuery> queries_from_transfer_function(
    const TransferFunction& tf, usize var = 0,
    float opacity_threshold = 0.0f);

/// Convenience over queries_from_transfer_function: does any interval of
/// the inverted TF possibly match the block?
bool tf_may_need_block(const std::vector<RegionQuery>& tf_queries,
                       const BlockMetadataTable& metadata, BlockId id);

/// The working set of a data-dependent operation at a view: blocks both
/// inside the view cone AND passing the query's metadata test. This is the
/// set Algorithm 1 must stage at full resolution — multi-resolution
/// fallbacks would corrupt the query result (paper Section III-B). It is
/// `bounds.visible_blocks(camera)`, the same octree cull as every other
/// step, filtered by RegionQuery::may_match: ids ascending.
std::vector<BlockId> query_visible_blocks(const Camera& camera,
                                          const BlockBoundsIndex& bounds,
                                          const BlockMetadataTable& metadata,
                                          const RegionQuery& query);

/// A change of query at a given path step — models the user retuning the
/// transfer function / query mid-exploration ("possibly dynamically changed
/// transfer functions", Section IV-A Step 3).
struct QueryChange {
  usize step = 0;  ///< 0-based path index at which the query becomes active
  RegionQuery query;
};

/// Time-ordered schedule of query changes over a camera path.
class QuerySchedule {
 public:
  QuerySchedule() = default;
  /// `changes` need not be sorted; they are ordered by step. The schedule
  /// implicitly starts with an empty (match-all) query at step 0 unless a
  /// change for step 0 is given.
  explicit QuerySchedule(std::vector<QueryChange> changes);

  /// The query active at a path step.
  const RegionQuery& active_at(usize step) const;

 private:
  std::vector<QueryChange> changes_;
  RegionQuery match_all_;
};

}  // namespace vizcache
