#ifndef SVQA_EXEC_RELATION_PAIRS_H_
#define SVQA_EXEC_RELATION_PAIRS_H_

#include <span>
#include <vector>

#include "graph/frozen_graph.h"
#include "util/sim_clock.h"

namespace svqa::exec {

/// \brief One (Sub - E_so - Obj) relation pair (Algorithm 3 line 26),
/// in id space: two vertex ids and the interned edge-label id. The
/// label's text is only looked up (`FrozenGraph::EdgeLabelName`) where
/// it leaves the system, in answer provenance. `forward` is true when
/// the merged-graph edge runs subject -> object.
struct RelationPair {
  graph::VertexId subject = 0;
  graph::VertexId object = 0;
  graph::LabelId label = graph::kInvalidLabel;
  bool forward = true;
};

/// \brief getRelations(Sub, Obj): all edges of `g` connecting a subject
/// candidate with an object candidate, in either direction. Scans the
/// CSR adjacency of the smaller side and binary-searches the other;
/// charges CostKind::kEdgeTraverse per adjacency entry scanned.
///
/// Precondition: `subjects` and `objects` are ascending (matchVertex
/// results and executor bindings are sorted + deduplicated); only the
/// probed (larger) side's order is load-bearing.
std::vector<RelationPair> FindRelationPairs(
    const graph::FrozenGraph& g, std::span<const graph::VertexId> subjects,
    std::span<const graph::VertexId> objects, SimClock* clock = nullptr);

}  // namespace svqa::exec

#endif  // SVQA_EXEC_RELATION_PAIRS_H_
