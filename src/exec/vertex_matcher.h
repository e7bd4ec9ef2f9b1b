#ifndef SVQA_EXEC_VERTEX_MATCHER_H_
#define SVQA_EXEC_VERTEX_MATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/frozen_graph.h"
#include "graph/interning.h"
#include "nlp/spoc_extractor.h"
#include "text/embedding.h"
#include "util/exec_context.h"
#include "util/memo_cache.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace svqa::exec {

/// \brief Options for matchVertex.
struct VertexMatcherOptions {
  /// Maximum normalized Levenshtein distance for a label match (the
  /// paper's "empirical threshold").
  double levenshtein_threshold = 0.34;
  /// Minimum embedding cosine for the relation-edge fallback of
  /// non-simple nouns.
  double edge_similarity_threshold = 0.55;
  /// Probe the inverted label/category index instead of scanning every
  /// merged-graph vertex. Changes the *charged* cost of MatchByLabel and
  /// ExpandTaxonomy from O(|V|) / O(in-degree) to a bucket probe; the
  /// Levenshtein full scan (still charged in full) only fires for
  /// near-miss keys the index cannot resolve exactly. Disable for the
  /// pre-index cost model (the Exp-5 ablation baseline).
  bool use_label_index = true;
  /// Memoize the best-edge-label cosine lookup of possessive phrases
  /// (head -> embedding-closest KG edge label). A memo hit charges one
  /// kCacheProbe instead of kEmbeddingSim per edge label.
  bool memoize_similarity = true;
};

/// \brief matchVertex (Algorithm 3, §V-A): resolves a SPOC element to
/// candidate vertices of the merged graph.
///
/// Simple nouns resolve through the inverted canonical-token index
/// (label/category -> vertex bucket, built once at construction); a
/// near-miss key falls back to the full merged-graph scan comparing
/// labels by normalized Levenshtein distance. Hyponym expansion then
/// follows the KG taxonomy (is-a / instance-of links, pre-bucketed per
/// vertex) so "animal" reaches dog/cat scene objects. Possessive phrases
/// ("harry potter's girlfriend") resolve the owner and follow the KG
/// edge whose label is embedding-closest to the head ("girlfriend" ->
/// "girlfriend-of").
///
/// Charging model: with `use_label_index` the virtual clock is charged
/// for the bucket probe plus one kVertexCompare per bucket entry —
/// the index is part of the modeled system, not just a host shortcut.
/// With the index disabled the full scan is charged (kVertexCompare +
/// kLevenshtein per vertex), reproducing the paper's pre-index §V-A
/// cost that the scope cache amortizes.
///
/// Id-space execution: the matcher reads the compiled FrozenGraph
/// snapshot — edge labels and attribute categories compare as interned
/// 32-bit ids, the Levenshtein near-miss scan memoizes per
/// (query, label-symbol) pair and per canonical key, and the taxonomy
/// walk uses a byte-mask visited set from the context's arena instead of
/// a hash set. The memos shed host work only; every virtual-clock charge
/// follows the cost model above.
///
/// Thread-safety: `Match` is safe for concurrent calls; the mutable
/// state (similarity / Levenshtein / scan memos) is internally locked.
///
/// Resilience: the context-taking `Match` overload honours the
/// check-point contract — it polls cancellation and the virtual-time
/// deadline between scans (each scan's cost is charged before the
/// check, so a scan that blows its budget surfaces kDeadlineExceeded at
/// the very next check-point) and consults the fault policy at
/// FaultSite::kMatcherScan / kRelationScore before fault-prone work.
class VertexMatcher {
 public:
  /// \param frozen compiled snapshot of the merged graph to match
  /// against. Not owned; must outlive the matcher.
  VertexMatcher(const graph::FrozenGraph& frozen,
                const text::EmbeddingModel* embeddings,
                VertexMatcherOptions options = {});

  /// Resolves one element. The result is sorted and deduplicated.
  /// Infallible convenience overload for fault-free, unbounded callers.
  std::vector<graph::VertexId> Match(const nlp::SpocElement& element,
                                     SimClock* clock = nullptr) const;

  /// Context-aware resolution: surfaces kCancelled / kDeadlineExceeded
  /// from check-points and injected faults from the context's policy.
  Result<std::vector<graph::VertexId>> Match(const nlp::SpocElement& element,
                                             const ExecContext& ctx) const;

  /// The stable cache key identifying this element's match scope.
  static std::string ScopeKey(const nlp::SpocElement& element);

  const VertexMatcherOptions& options() const { return options_; }
  /// Hit/miss counters of the possessive edge-label memo.
  MemoStats similarity_memo_stats() const { return edge_label_memo_.stats(); }

 private:
  Result<std::vector<graph::VertexId>> MatchByLabel(
      const std::string& head, const ExecContext& ctx) const;
  Status ExpandTaxonomy(std::vector<graph::VertexId>* candidates,
                        const ExecContext& ctx) const;
  Result<std::vector<graph::VertexId>> MatchPossessive(
      const nlp::SpocElement& element, const ExecContext& ctx) const;
  /// maxScore of `head` against the snapshot's edge labels, through the
  /// memo when enabled.
  Result<std::pair<int, double>> BestEdgeLabel(const std::string& head,
                                               const ExecContext& ctx) const;
  /// Is the normalized Levenshtein distance between the
  /// interned symbol's text and `canon` within the match threshold?
  /// Memoized per (canon symbol, other symbol) pair.
  bool LevenshteinWithin(graph::SymbolId sym, graph::SymbolId canon_sym,
                         const std::string& canon) const;

  const graph::FrozenGraph& frozen_;
  const text::EmbeddingModel* embeddings_;
  VertexMatcherOptions options_;
  /// Interned edge-label id of "has-attribute".
  graph::LabelId has_attribute_label_ = graph::kInvalidLabel;
  /// Per-vertex interned canonical-category token (the attribute filter
  /// compares these against the wanted attribute).
  std::vector<graph::SymbolId> canon_category_sym_;
  /// Inverted index: canonical category/label token -> vertex bucket.
  std::unordered_map<std::string, std::vector<graph::VertexId>> canon_index_;
  /// Taxonomy bucket per vertex: in-neighbors reachable over
  /// is-a / instance-of / same-as edges (what ExpandTaxonomy follows).
  std::vector<std::vector<graph::VertexId>> taxonomy_children_;
  /// Possessive head -> (edge label index, cosine) memo; thread-safe.
  mutable MemoCache<std::string, std::pair<int, double>> edge_label_memo_;
  /// (canon symbol << 32 | label symbol) -> within
  /// threshold. Bounded by vocabulary size squared, in practice tiny.
  mutable MemoCache<uint64_t, bool> lev_pair_memo_;
  /// Canonical key -> shared near-miss scan result. The
  /// scan's virtual cost is charged before the memo is consulted, so a
  /// hit skips host work only.
  mutable MemoCache<std::string,
                    std::shared_ptr<const std::vector<graph::VertexId>>>
      scan_memo_;
};

}  // namespace svqa::exec

#endif  // SVQA_EXEC_VERTEX_MATCHER_H_
