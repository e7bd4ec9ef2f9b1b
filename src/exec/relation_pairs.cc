#include "exec/relation_pairs.h"

#include <algorithm>

namespace svqa::exec {

std::vector<RelationPair> FindRelationPairs(
    const graph::FrozenGraph& g, std::span<const graph::VertexId> subjects,
    std::span<const graph::VertexId> objects, SimClock* clock) {
  std::vector<RelationPair> pairs;
  if (subjects.empty() || objects.empty()) return pairs;

  // Join-direction choice: scan the adjacency of the smaller candidate
  // set and probe the larger one — the traversal cost is proportional
  // to the scanned side's degree sum. The probe side is binary-searched
  // in place (candidate sets arrive sorted), so the only allocations
  // are the output pairs themselves.
  const bool scan_subjects = subjects.size() <= objects.size();
  const auto& scan = scan_subjects ? subjects : objects;
  const auto& probe = scan_subjects ? objects : subjects;

  const auto in_probe = [&probe](graph::VertexId v) {
    return std::binary_search(probe.begin(), probe.end(), v);
  };
  // Counting pass: the result is usually published into the path cache
  // where it lives long-term, so size the buffer exactly instead of
  // paying the ~2x realloc-growth traffic. The traversal is charged
  // once (below) — the recount is host work over the CSR rows, not
  // modeled cost.
  std::size_t matches = 0;
  double scanned = 0;
  for (graph::VertexId v : scan) {
    for (const auto& he : g.OutEdges(v)) {
      ++scanned;
      if (in_probe(he.neighbor)) ++matches;
    }
    for (const auto& he : g.InEdges(v)) {
      ++scanned;
      if (in_probe(he.neighbor)) ++matches;
    }
  }
  pairs.reserve(matches);
  // `out_edge` is true for the stored edge v -> neighbor. Subject/object
  // roles depend on which side was scanned, and `forward` records
  // whether the stored edge runs subject -> object.
  const auto emit = [&](graph::VertexId v, const graph::HalfEdge& he,
                        bool out_edge) {
    if (!in_probe(he.neighbor)) return;
    if (scan_subjects) {
      pairs.push_back(RelationPair{v, he.neighbor, he.label, out_edge});
    } else {
      pairs.push_back(RelationPair{he.neighbor, v, he.label, !out_edge});
    }
  };
  for (graph::VertexId v : scan) {
    for (const auto& he : g.OutEdges(v)) emit(v, he, /*out_edge=*/true);
    for (const auto& he : g.InEdges(v)) emit(v, he, /*out_edge=*/false);
  }
  if (clock != nullptr) clock->Charge(CostKind::kEdgeTraverse, scanned);
  return pairs;
}

}  // namespace svqa::exec
