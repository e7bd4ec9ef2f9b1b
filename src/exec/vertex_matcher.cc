#include "exec/vertex_matcher.h"

#include <algorithm>
#include <cstring>

#include "aggregator/merger.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "text/levenshtein.h"
#include "util/arena.h"

namespace svqa::exec {

VertexMatcher::VertexMatcher(const graph::FrozenGraph& frozen,
                             const text::EmbeddingModel* embeddings,
                             VertexMatcherOptions options)
    : frozen_(frozen),
      embeddings_(embeddings),
      options_(options),
      has_attribute_label_(frozen.EdgeLabelIdOf("has-attribute")
                               .value_or(graph::kInvalidLabel)) {
  const auto& lexicon = embeddings_->lexicon();
  const auto label_id = [&frozen](std::string_view name) {
    return frozen.EdgeLabelIdOf(name).value_or(graph::kInvalidLabel);
  };
  const graph::LabelId taxonomy_labels[] = {
      label_id("is-a"), label_id(aggregator::kInstanceOfEdge),
      label_id(aggregator::kSameAsEdge)};
  const std::size_t n = frozen_.num_vertices();
  taxonomy_children_.resize(n);
  canon_category_sym_.resize(n, graph::kInvalidSymbol);
  for (graph::VertexId v = 0; v < n; ++v) {
    const std::string canon_category = lexicon.Canonical(frozen_.category(v));
    canon_index_[canon_category].push_back(v);
    canon_category_sym_[v] = frozen_.symbols().Intern(canon_category);
    const std::string canon_label =
        lexicon.Canonical(frozen_.stripped_label(v));
    if (canon_label != canon_category) {
      canon_index_[canon_label].push_back(v);
    }
    for (const auto& he : frozen_.InEdges(v)) {
      if (std::find(std::begin(taxonomy_labels), std::end(taxonomy_labels),
                    he.label) != std::end(taxonomy_labels)) {
        taxonomy_children_[v].push_back(he.neighbor);
      }
    }
  }
}

std::string VertexMatcher::ScopeKey(const nlp::SpocElement& element) {
  std::string key = "scope:";
  key += element.head;
  if (!element.owner.empty()) {
    key += "|owner=";
    key += element.owner;
  }
  if (!element.attribute.empty()) {
    key += "|attr=";
    key += element.attribute;
  }
  return key;
}

Result<std::vector<graph::VertexId>> VertexMatcher::MatchByLabel(
    const std::string& head, const ExecContext& ctx) const {
  SimClock* clock = ctx.clock;
  const auto num_vertices = static_cast<double>(frozen_.num_vertices());
  const std::string canon = embeddings_->lexicon().Canonical(head);

  SVQA_RETURN_NOT_OK(ctx.Checkpoint("matchVertex"));
  if (Status probed = ctx.ProbeFault(FaultSite::kMatcherScan, canon);
      !probed.ok()) {
    obs::CountFault(ctx.obs, FaultSite::kMatcherScan);
    return probed;
  }

  const auto it = canon_index_.find(canon);
  if (options_.use_label_index) {
    // Indexed probe: one bucket lookup plus a verifying compare per
    // bucket entry.
    if (clock != nullptr) clock->Charge(CostKind::kCacheProbe);
    if (it != canon_index_.end()) {
      if (clock != nullptr) {
        clock->Charge(CostKind::kVertexCompare,
                      static_cast<double>(it->second.size()));
      }
      return it->second;
    }
    // Near-miss key: the index cannot answer; the Levenshtein full scan
    // below runs (and is charged) exactly as in the unindexed model.
  } else {
    // Pre-index model: a scan of every vertex with a Levenshtein test
    // per label (what the scope cache amortizes); charge it as such
    // even when the physical fast path below short-circuits.
    if (clock != nullptr) {
      clock->Charge(CostKind::kVertexCompare, num_vertices);
      clock->Charge(CostKind::kLevenshtein, num_vertices);
    }
    SVQA_RETURN_NOT_OK(ctx.Checkpoint("matchVertex full scan"));
    if (it != canon_index_.end()) return it->second;
  }

  // Fuzzy fallback: normalized Levenshtein over labels and categories.
  if (options_.use_label_index) {
    if (clock != nullptr) {
      clock->Charge(CostKind::kVertexCompare, num_vertices);
      clock->Charge(CostKind::kLevenshtein, num_vertices);
    }
    // The scan's virtual cost is charged up front, so a budget-blowing
    // scan bails here before burning host time on the physical loop.
    SVQA_RETURN_NOT_OK(ctx.Checkpoint("matchVertex Levenshtein scan"));
  }
  // Id-space scan: the full virtual cost is already on the clock, so
  // the memos below shed host work only. The whole scan result is a
  // pure function of `canon` and the snapshot; repeats are shared.
  if (auto memo = scan_memo_.Get(canon)) {
    return std::vector<graph::VertexId>(**memo);
  }
  const graph::SymbolId canon_sym = frozen_.symbols().Intern(canon);
  auto scanned = std::make_shared<std::vector<graph::VertexId>>();
  const graph::VertexId n = frozen_.num_vertices();
  for (graph::VertexId v = 0; v < n; ++v) {
    if (LevenshteinWithin(frozen_.stripped_label_symbol(v), canon_sym,
                          canon) ||
        LevenshteinWithin(frozen_.category_symbol(v), canon_sym, canon)) {
      scanned->push_back(v);
    }
  }
  std::vector<graph::VertexId> out(*scanned);
  scan_memo_.Put(canon, std::move(scanned));
  return out;
}

bool VertexMatcher::LevenshteinWithin(graph::SymbolId sym,
                                      graph::SymbolId canon_sym,
                                      const std::string& canon) const {
  const uint64_t key = (static_cast<uint64_t>(canon_sym) << 32) | sym;
  if (auto hit = lev_pair_memo_.Get(key)) return *hit;
  const bool within =
      text::NormalizedLevenshtein(frozen_.symbols().NameOf(sym), canon) <=
      options_.levenshtein_threshold;
  lev_pair_memo_.Put(key, within);
  return within;
}

Status VertexMatcher::ExpandTaxonomy(std::vector<graph::VertexId>* candidates,
                                     const ExecContext& ctx) const {
  SimClock* clock = ctx.clock;
  SVQA_RETURN_NOT_OK(ctx.Checkpoint("taxonomy expansion"));
  // Walk down the taxonomy: concept -> (is-a in-edges) -> sub-concepts
  // -> (instance-of in-edges) -> scene objects / entities. The walk
  // follows the per-vertex taxonomy bucket; with the index disabled the
  // clock is charged for the full in-edge scan the bucket replaces. The
  // visited set is a byte mask over the vertex table and the
  // breadth-first frontier a flat vector with a read head, both from the
  // per-query arena when one is installed.
  double traversed = 0;
  double probes = 0;
  const std::size_t n = frozen_.num_vertices();
  const auto walk = [&](uint8_t* seen, auto& frontier) {
    for (const graph::VertexId c : *candidates) seen[c] = 1;
    frontier.assign(candidates->begin(), candidates->end());
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const graph::VertexId v = frontier[head];
      const auto& children = taxonomy_children_[v];
      if (options_.use_label_index) {
        ++probes;
        traversed += static_cast<double>(children.size());
      } else {
        traversed += static_cast<double>(frozen_.InDegree(v));
      }
      for (const graph::VertexId child : children) {
        if (seen[child] == 0) {
          seen[child] = 1;
          candidates->push_back(child);
          frontier.push_back(child);
        }
      }
    }
  };
  if (ctx.arena != nullptr) {
    auto* seen = static_cast<uint8_t*>(ctx.arena->Allocate(n, 1));
    std::memset(seen, 0, n);
    util::ArenaVector<graph::VertexId> frontier{
        util::ArenaAllocator<graph::VertexId>(ctx.arena)};
    walk(seen, frontier);
  } else {
    std::vector<uint8_t> seen(n, 0);
    std::vector<graph::VertexId> frontier;
    walk(seen.data(), frontier);
  }
  if (clock != nullptr) {
    clock->Charge(CostKind::kEdgeTraverse, traversed);
    if (probes > 0) clock->Charge(CostKind::kCacheProbe, probes);
  }
  return ctx.Checkpoint("taxonomy expanded");
}

Result<std::pair<int, double>> VertexMatcher::BestEdgeLabel(
    const std::string& head, const ExecContext& ctx) const {
  SimClock* clock = ctx.clock;
  const auto& labels = frozen_.EdgeLabels();
  if (options_.memoize_similarity) {
    if (auto hit = edge_label_memo_.Get(head)) {
      if (clock != nullptr) clock->Charge(CostKind::kCacheProbe);
      return *hit;
    }
  }
  // The embedding sweep is the matcher's relation-scoring site.
  if (Status probed = ctx.ProbeFault(FaultSite::kRelationScore, head);
      !probed.ok()) {
    obs::CountFault(ctx.obs, FaultSite::kRelationScore);
    return probed;
  }
  if (clock != nullptr) {
    clock->Charge(CostKind::kEmbeddingSim, static_cast<double>(labels.size()));
  }
  SVQA_RETURN_NOT_OK(ctx.Checkpoint("edge-label maxScore"));
  const std::pair<int, double> best = embeddings_->MostSimilar(head, labels);
  if (options_.memoize_similarity) edge_label_memo_.Put(head, best);
  return best;
}

Result<std::vector<graph::VertexId>> VertexMatcher::MatchPossessive(
    const nlp::SpocElement& element, const ExecContext& ctx) const {
  SimClock* clock = ctx.clock;
  // Resolve the owner entity: KG labels are kebab-case
  // ("harry-potter"); the phrase is space-separated.
  std::string owner_label = element.owner;
  std::replace(owner_label.begin(), owner_label.end(), ' ', '-');
  SVQA_ASSIGN_OR_RETURN(std::vector<graph::VertexId> owners,
                        MatchByLabel(owner_label, ctx));
  if (owners.empty()) return std::vector<graph::VertexId>{};

  // The KG edge whose label is embedding-closest to the head
  // ("girlfriend" -> "girlfriend-of"); `best` indexes EdgeLabels(), so
  // it is that label's id.
  SVQA_ASSIGN_OR_RETURN(const auto best_score,
                        BestEdgeLabel(element.head, ctx));
  const auto [best, score] = best_score;
  if (best < 0 || score < options_.edge_similarity_threshold) {
    return std::vector<graph::VertexId>{};
  }
  const auto want = static_cast<graph::LabelId>(best);

  // X --girlfriend-of--> owner: collect in-edge sources on the owner.
  std::vector<graph::VertexId> out;
  double traversed = 0;
  for (graph::VertexId o : owners) {
    for (const auto& he : frozen_.InEdges(o)) {
      ++traversed;
      if (he.label == want) out.push_back(he.neighbor);
    }
    // Also follow out-edges for symmetric relations.
    for (const auto& he : frozen_.OutEdges(o)) {
      ++traversed;
      if (he.label == want) out.push_back(he.neighbor);
    }
  }
  if (clock != nullptr) clock->Charge(CostKind::kEdgeTraverse, traversed);
  return out;
}

std::vector<graph::VertexId> VertexMatcher::Match(
    const nlp::SpocElement& element, SimClock* clock) const {
  // A bare clock context carries no faults, token, or deadline, so the
  // resilient path below cannot fail.
  Result<std::vector<graph::VertexId>> result =
      Match(element, ExecContext::WithClock(clock));
  // svqa-lint: allow(unchecked-result) — infallible by construction.
  return std::move(result).ValueOrDie();
}

Result<std::vector<graph::VertexId>> VertexMatcher::Match(
    const nlp::SpocElement& element, const ExecContext& ctx) const {
  SimClock* clock = ctx.clock;
  obs::Span span(ctx.obs, clock, "exec.match");
  std::vector<graph::VertexId> out;
  if (element.empty()) return out;

  if (!element.owner.empty()) {
    SVQA_ASSIGN_OR_RETURN(out, MatchPossessive(element, ctx));
    // Named entities found through the KG extend to their scene-graph
    // appearances via same-as links.
    SVQA_RETURN_NOT_OK(ExpandTaxonomy(&out, ctx));
  } else {
    SVQA_ASSIGN_OR_RETURN(out, MatchByLabel(element.head, ctx));
    SVQA_RETURN_NOT_OK(ExpandTaxonomy(&out, ctx));
  }
  // Attribute constraint ("red robe"): keep only candidates with a
  // matching has-attribute edge. Canonical categories were interned at
  // construction, so a wanted token absent from the table matches no
  // vertex.
  if (!element.attribute.empty()) {
    const std::optional<graph::SymbolId> want_sym = frozen_.symbols().Lookup(
        embeddings_->lexicon().Canonical(element.attribute));
    std::vector<graph::VertexId> filtered;
    double traversed = 0;
    for (graph::VertexId v : out) {
      for (const auto& he : frozen_.OutEdges(v)) {
        ++traversed;
        if (he.label == has_attribute_label_ && want_sym.has_value() &&
            canon_category_sym_[he.neighbor] == *want_sym) {
          filtered.push_back(v);
          break;
        }
      }
    }
    if (clock != nullptr) clock->Charge(CostKind::kEdgeTraverse, traversed);
    out = std::move(filtered);
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace svqa::exec
