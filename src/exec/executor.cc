#include "exec/executor.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/observability.h"
#include "obs/trace.h"
#include "util/arena.h"

namespace svqa::exec {

const char* DegradationRungName(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kFullExecution:
      return "full-execution";
    case DegradationRung::kCachedSubgraph:
      return "cached-subgraph";
    case DegradationRung::kConservative:
      return "conservative";
  }
  return "?";
}

std::string SupportFact::ToString() const {
  std::ostringstream os;
  os << "{" << subject << ", " << predicate << ", " << object << "}";
  if (image == graph::kKnowledgeGraphSource) {
    os << " (knowledge graph)";
  } else {
    os << " (image " << image << ")";
  }
  return os.str();
}

QueryGraphExecutor::QueryGraphExecutor(
    const aggregator::MergedGraph* merged,
    const text::EmbeddingModel* embeddings, KeyCentricCache* cache,
    ExecutorOptions options, std::shared_ptr<const graph::FrozenGraph> frozen)
    : embeddings_(embeddings),
      frozen_(frozen != nullptr ? std::move(frozen) : merged->graph.Freeze()),
      matcher_(*frozen_, embeddings, options.matcher),
      cache_(cache),
      options_(options) {}

std::string QueryGraphExecutor::PathKey(const nlp::Spoc& spoc) {
  return "path:" + VertexMatcher::ScopeKey(spoc.subject) + "|" +
         spoc.predicate + "|" + VertexMatcher::ScopeKey(spoc.object);
}

Result<ScopeValue> QueryGraphExecutor::ResolveScope(
    const nlp::SpocElement& element, const ExecContext& ctx) const {
  const std::string key = VertexMatcher::ScopeKey(element);
  if (cache_ != nullptr) {
    if (auto hit = cache_->GetScope(key, ctx)) return std::move(*hit);
  }
  SVQA_ASSIGN_OR_RETURN(std::vector<graph::VertexId> scope,
                        matcher_.Match(element, ctx));
  auto shared = std::make_shared<const std::vector<graph::VertexId>>(
      std::move(scope));
  if (cache_ != nullptr) cache_->PutScope(key, shared, ctx);
  return shared;
}

std::shared_ptr<const std::vector<uint8_t>>
QueryGraphExecutor::PredicateVerdicts(const std::string& predicate) const {
  if (auto hit = predicate_verdict_memo_.Get(predicate)) {
    return std::move(*hit);
  }
  const auto& labels = frozen_->EdgeLabels();
  const auto& lexicon = embeddings_->lexicon();
  auto verdicts = std::make_shared<std::vector<uint8_t>>(labels.size(), 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    (*verdicts)[i] = labels[i] == predicate ||
                             lexicon.AreSynonyms(labels[i], predicate)
                         ? 1
                         : 0;
  }
  predicate_verdict_memo_.Put(predicate, verdicts);
  return verdicts;
}

Result<std::string> QueryGraphExecutor::MatchPredicateLabel(
    const std::string& predicate, const ExecContext& ctx) const {
  SimClock* clock = ctx.clock;
  if (options_.memoize_similarity) {
    if (auto hit = predicate_label_memo_.Get(predicate)) {
      if (clock != nullptr) clock->Charge(CostKind::kCacheProbe);
      return std::move(*hit);
    }
  }
  // The embedding sweep is the executor's relation-scoring fault site.
  if (Status probed = ctx.ProbeFault(FaultSite::kRelationScore, predicate);
      !probed.ok()) {
    obs::CountFault(ctx.obs, FaultSite::kRelationScore);
    return probed;
  }
  const auto& labels = frozen_->EdgeLabels();
  if (clock != nullptr) {
    clock->Charge(CostKind::kEmbeddingSim,
                  static_cast<double>(labels.size()));
  }
  SVQA_RETURN_NOT_OK(ctx.Checkpoint("predicate maxScore"));
  // Exact canonical hit first; embedding similarity otherwise. The
  // resolution is a pure function of the immutable snapshot, so the
  // memoized value is identical no matter which query computed it.
  std::string resolved = predicate;  // no plausible label drops all pairs
  bool found = false;
  for (const auto& label : labels) {
    if (label == predicate) {
      resolved = label;
      found = true;
      break;
    }
  }
  if (!found) {
    const auto& lexicon = embeddings_->lexicon();
    for (const auto& label : labels) {
      if (lexicon.AreSynonyms(label, predicate)) {
        resolved = label;
        found = true;
        break;
      }
    }
  }
  if (!found) {
    auto [best, score] = embeddings_->MostSimilar(predicate, labels);
    if (best >= 0 && score >= options_.predicate_similarity_threshold) {
      resolved = labels[static_cast<std::size_t>(best)];
    }
  }
  if (options_.memoize_similarity) {
    predicate_label_memo_.Put(predicate, resolved);
  }
  return resolved;
}

template <typename PairVec>
Result<PairVec> QueryGraphExecutor::ApplyConstraint(
    PairVec pairs, const std::string& constraint,
    const ExecContext& ctx) const {
  SimClock* clock = ctx.clock;
  if (constraint.empty() || pairs.empty()) return pairs;
  obs::Span span(ctx.obs, clock, "exec.constraints");
  // Con <- maxScore(L(c_c), S): resolve the constraint phrase against the
  // predefined word set (Algorithm 3 line 9), through the memo so a
  // repeated constraint charges one probe instead of a keyword sweep.
  ConstraintSpec spec;
  bool resolved = false;
  if (options_.memoize_similarity) {
    if (auto hit = constraint_memo_.Get(constraint)) {
      if (clock != nullptr) clock->Charge(CostKind::kCacheProbe);
      spec = std::move(*hit);
      resolved = true;
    }
  }
  if (!resolved) {
    SVQA_ASSIGN_OR_RETURN(spec,
                          ResolveConstraint(constraint, *embeddings_, ctx));
    if (options_.memoize_similarity) constraint_memo_.Put(constraint, spec);
  }
  if (spec.kind == ConstraintKind::kNone) return pairs;
  const bool most = spec.kind == ConstraintKind::kMostFrequent;

  // Group by subject identity (the constrained entity) and keep the
  // group(s) with the max (min) support — "most frequently" semantics.
  // Groups are keyed by the interned answer symbol and emitted in the
  // order of their answer text.
  std::unordered_map<graph::SymbolId, std::vector<RelationPair>> groups;
  for (auto& p : pairs) {
    groups[NormalizeAnswerSymbol(p.subject, /*want_kind=*/false)].push_back(
        p);
  }
  std::size_t extreme = most ? 0 : pairs.size() + 1;
  for (const auto& [sym, group] : groups) {
    if (most) {
      extreme = std::max(extreme, group.size());
    } else {
      extreme = std::min(extreme, group.size());
    }
  }
  std::vector<graph::SymbolId> keys;
  keys.reserve(groups.size());
  for (const auto& [sym, group] : groups) keys.push_back(sym);
  const graph::SymbolTable& symbols = frozen_->symbols();
  std::sort(keys.begin(), keys.end(),
            [&symbols](graph::SymbolId a, graph::SymbolId b) {
              return symbols.NameOf(a) < symbols.NameOf(b);
            });
  PairVec out(pairs.get_allocator());
  for (const graph::SymbolId sym : keys) {
    const auto& group = groups[sym];
    if (group.size() == extreme) {
      out.insert(out.end(), group.begin(), group.end());
    }
  }
  return out;
}

graph::SymbolId QueryGraphExecutor::NormalizeAnswerSymbol(
    graph::VertexId v, bool want_kind) const {
  if (want_kind || frozen_->label_is_anonymous(v)) {
    return frozen_->category_symbol(v);
  }
  return frozen_->label_symbol(v);
}

Answer QueryGraphExecutor::MakeAnswer(
    const query::QueryGraph& gq, const nlp::Spoc& spoc,
    std::span<const RelationPair> pairs) const {
  Answer ans;
  ans.type = gq.type();

  // Which side of the relation pairs carries the asked-for value?
  const bool subject_var = spoc.subject.is_variable;
  const bool object_var = spoc.object.is_variable;
  const nlp::SpocElement& var_el = object_var ? spoc.object : spoc.subject;

  // Evidence sample for provenance.
  for (const auto& p : pairs) {
    if (ans.provenance.size() >= Answer::kMaxProvenance) break;
    SupportFact fact;
    fact.subject = std::string(frozen_->label(p.subject));
    fact.predicate = std::string(frozen_->EdgeLabelName(p.label));
    fact.object = std::string(frozen_->label(p.object));
    const int32_t subject_image = frozen_->source_image(p.subject);
    fact.image = subject_image != graph::kKnowledgeGraphSource
                     ? subject_image
                     : frozen_->source_image(p.object);
    ans.provenance.push_back(std::move(fact));
  }

  switch (gq.type()) {
    case nlp::QuestionType::kJudgment: {
      ans.yes = !pairs.empty();
      ans.text = ans.yes ? "yes" : "no";
      break;
    }
    case nlp::QuestionType::kCounting: {
      // Accumulate across images: distinct identities. "How many kinds
      // of X" counts categories; entity counting counts names. An
      // anonymous detection ("wizard#3") of an entity category is an
      // *unresolvable* individual — it may be a re-detection of an
      // already-counted entity in another image — so it is excluded from
      // identity counts rather than inflating them. Distinct interned
      // symbols have the cardinality of distinct answer texts.
      std::unordered_set<graph::SymbolId> distinct;
      for (const auto& p : pairs) {
        const graph::VertexId v = object_var ? p.object : p.subject;
        if (!var_el.want_kind && frozen_->label_is_anonymous(v)) continue;
        distinct.insert(NormalizeAnswerSymbol(v, var_el.want_kind));
      }
      ans.count = static_cast<int64_t>(distinct.size());
      ans.text = std::to_string(ans.count);
      break;
    }
    case nlp::QuestionType::kReasoning: {
      // Vote over normalized answers of the variable side; most frequent
      // first (the paper's top-1 selection). The (count desc, text asc)
      // sort fully determines the ranking, so the id-space tally below
      // needs no ordered map.
      std::unordered_map<graph::SymbolId, std::size_t> votes;
      for (const auto& p : pairs) {
        const graph::VertexId v =
            (object_var || !subject_var) ? p.object : p.subject;
        ++votes[NormalizeAnswerSymbol(v, var_el.want_kind)];
      }
      const graph::SymbolTable& symbols = frozen_->symbols();
      std::vector<std::pair<std::string_view, std::size_t>> ranked;
      ranked.reserve(votes.size());
      for (const auto& [sym, n] : votes) {
        ranked.emplace_back(symbols.NameOf(sym), n);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      for (const auto& [label, n] : ranked) ans.entities.emplace_back(label);
      ans.text = ans.entities.empty() ? "unknown" : ans.entities.front();
      break;
    }
  }
  return ans;
}

Result<Answer> QueryGraphExecutor::Execute(const query::QueryGraph& gq,
                                           SimClock* clock) const {
  return Execute(gq, ExecContext::WithClock(clock));
}

Result<Answer> QueryGraphExecutor::Execute(const query::QueryGraph& gq,
                                           const ExecContext& ctx) const {
  SimClock* clock = ctx.clock;
  if (gq.size() == 0) {
    return Status::InvalidArgument("empty query graph");
  }
  SVQA_ASSIGN_OR_RETURN(std::vector<int> order, gq.TopologicalOrder());

  // Per-vertex role bindings pushed by producers (Update Stage).
  std::vector<std::optional<std::vector<graph::VertexId>>> subj_binding(
      gq.size());
  std::vector<std::optional<std::vector<graph::VertexId>>> obj_binding(
      gq.size());

  Answer final_answer;
  bool answered = false;

  for (int u : order) {
    SVQA_RETURN_NOT_OK(ctx.Checkpoint("query vertex"));
    obs::Span vertex_span(ctx.obs, clock, "exec.vertex");
    const nlp::Spoc& spoc = gq.vertices()[u];

    // --- Query Stage ---
    // The path cache is consulted first (§V-B): a hit supplies the whole
    // relation-pair set, skipping both matchVertex scans and the
    // adjacency traversal. Only vertices without question-specific
    // bindings are path-cacheable.
    const bool cacheable =
        !subj_binding[u].has_value() && !obj_binding[u].has_value();
    // A path-cache hit is read in place: `rp` keeps the shared entry
    // alive while the filters below read it.
    PathValue rp;
    if (cacheable && cache_ != nullptr) {
      if (auto hit = cache_->GetPath(PathKey(spoc), ctx)) rp = std::move(*hit);
    }
    if (rp == nullptr) {
      // Scopes resolve to spans: bindings are viewed in place and cached
      // scopes are shared entries pinned by the keep-alives below.
      ScopeValue subj_keep, obj_keep;
      std::span<const graph::VertexId> subjects, objects;
      if (subj_binding[u].has_value()) {
        subjects = *subj_binding[u];
      } else {
        SVQA_ASSIGN_OR_RETURN(subj_keep, ResolveScope(spoc.subject, ctx));
        subjects = *subj_keep;
      }
      if (obj_binding[u].has_value()) {
        objects = *obj_binding[u];
      } else {
        SVQA_ASSIGN_OR_RETURN(obj_keep, ResolveScope(spoc.object, ctx));
        objects = *obj_keep;
      }
      {
        obs::Span rp_span(ctx.obs, clock, "exec.relation_pairs");
        rp = std::make_shared<const std::vector<RelationPair>>(
            FindRelationPairs(*frozen_, subjects, objects, clock));
      }
      // The adjacency scan's cost is on the clock; bail before filtering
      // if it blew the budget.
      SVQA_RETURN_NOT_OK(ctx.Checkpoint("relation pairs"));
      if (cacheable && cache_ != nullptr) {
        cache_->PutPath(PathKey(spoc), rp, ctx);
      }
    }

    // Predicate filter: keep pairs whose label is the predicate, one of
    // its lexicon synonyms, or (fallback) the embedding-closest label.
    // The filter -> constraint -> bind tail is written once, generically
    // over the surviving-pair vector type: an arena-backed vector when
    // the context carries per-query scratch (the dominant per-query
    // buffer becomes bump scratch), a heap vector otherwise.
    auto process_pairs = [&](auto ap) -> Status {
      ap.reserve(rp->size());
      // One byte load per pair.
      const auto verdicts = PredicateVerdicts(spoc.predicate);
      for (const auto& p : *rp) {
        if ((*verdicts)[p.label] != 0) ap.push_back(p);
      }
      // maxScore runs in the paper's algorithm whether or not the synonym
      // short-circuit above already kept pairs; through the memo it
      // charges the embedding sweep once per distinct predicate.
      SVQA_ASSIGN_OR_RETURN(const std::string label,
                            MatchPredicateLabel(spoc.predicate, ctx));
      if (ap.empty() && !rp->empty()) {
        // `label` resolves to an edge-label id unless maxScore fell all
        // the way back to the raw predicate, which then matches no edge.
        if (const std::optional<graph::LabelId> lid =
                frozen_->EdgeLabelIdOf(label)) {
          for (const auto& p : *rp) {
            if (p.label == *lid) ap.push_back(p);
          }
        }
      }

      // Constraint filter.
      SVQA_ASSIGN_OR_RETURN(
          ap, ApplyConstraint(std::move(ap), spoc.constraint, ctx));

      // --- Update Stage ---
      obs::Span bind_span(ctx.obs, clock, "exec.bind");
      for (const query::QueryEdge& e : gq.EdgesFromProducer(u)) {
        std::vector<graph::VertexId> binding;
        const bool from_subject = e.kind == query::DependencyKind::kS2S ||
                                  e.kind == query::DependencyKind::kO2S;
        for (const auto& p : ap) {
          binding.push_back(from_subject ? p.subject : p.object);
        }
        std::sort(binding.begin(), binding.end());
        binding.erase(std::unique(binding.begin(), binding.end()),
                      binding.end());
        const bool to_subject = e.kind == query::DependencyKind::kS2S ||
                                e.kind == query::DependencyKind::kS2O;
        if (to_subject) {
          subj_binding[e.consumer] = std::move(binding);
        } else {
          obj_binding[e.consumer] = std::move(binding);
        }
      }

      // The main clause (vertex 0) produces the final answer.
      if (u == 0) {
        final_answer = MakeAnswer(gq, spoc, ap);
        answered = true;
      }
      return Status::OK();
    };
    if (ctx.arena != nullptr) {
      SVQA_RETURN_NOT_OK(process_pairs(util::ArenaVector<RelationPair>(
          util::ArenaAllocator<RelationPair>(ctx.arena))));
    } else {
      SVQA_RETURN_NOT_OK(process_pairs(std::vector<RelationPair>()));
    }
  }

  if (!answered) {
    return Status::ExecutionError("main clause never executed");
  }
  return final_answer;
}

Result<Answer> QueryGraphExecutor::ExecuteResilient(
    const query::QueryGraph& gq, SimClock* clock,
    const ResilienceOptions& resilience, uint64_t salt,
    Diagnostics* diagnostics) const {
  ExecContext ctx;
  ctx.clock = clock;
  ctx.faults = resilience.fault_policy;
  ctx.cancel = resilience.cancel;
  ctx.obs = resilience.obs;
  if (clock != nullptr) {
    ctx.deadline =
        Deadline::FromBudget(clock, resilience.query_deadline_micros);
  }
  // Per-query scratch. The arena is thread-local so its slabs survive
  // across queries on the same worker: a warm worker's taxonomy walks
  // and scratch vectors bump-allocate into already-reserved slabs and
  // the steady-state heap traffic per query is near zero. Reset rewinds
  // (without freeing) at query start and between retry attempts, so the
  // ExecContext::arena lifetime contract — nothing allocated from it
  // outlives the query — is unchanged. Batch workers are distinct
  // threads, so arenas are never shared.
  static thread_local util::Arena arena;
  ctx.arena = &arena;
  // Entry reading for Diagnostics.charged_micros: everything this call
  // charges (attempts and backoffs alike) lands between this reading
  // and the one taken at exit, and nothing is charged outside the
  // attempt/backoff spans — so charged_micros equals the trace's
  // outermost span extent bit for bit.
  const double entry_micros = clock != nullptr ? clock->ElapsedMicros() : 0;
  const int max_attempts =
      resilience.enable_retries ? std::max(1, resilience.retry.max_attempts)
                                : 1;
  Diagnostics diag;
  Status last = Status::OK();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    arena.Reset();
    ctx.attempt = static_cast<uint32_t>(attempt - 1);
    diag.attempts = attempt;
    if (const obs::StackMetrics* m = obs::MetricsOf(ctx.obs)) {
      m->exec_attempts->Incr();
      if (attempt > 1) m->exec_retries->Incr();
    }
    // Immediately-invoked so the attempt span closes before any backoff
    // span opens — attempts and backoffs are siblings in the trace, not
    // nested.
    Result<Answer> result = [&] {
      obs::Span attempt_span(ctx.obs, clock, "exec.attempt");
      return Execute(gq, ctx);
    }();
    if (result.ok()) {
      diag.primary = Status::OK();
      diag.charged_micros =
          clock != nullptr ? clock->ElapsedMicros() - entry_micros : 0;
      if (diagnostics != nullptr) *diagnostics = diag;
      Answer ans = std::move(result).ValueOrDie();
      ans.diagnostics = diag;
      return ans;
    }
    last = result.status();
    // Terminal failures (cancelled, deadline, permanent faults) are
    // never retried; transient ones back off and go again.
    if (!IsTransient(last) || attempt == max_attempts) break;
    const double backoff = RetryBackoffMicros(resilience.retry, attempt, salt);
    diag.backoff_micros += backoff;
    if (const obs::StackMetrics* m = obs::MetricsOf(ctx.obs)) {
      m->exec_backoff_micros->Incr(static_cast<uint64_t>(backoff));
    }
    {
      obs::Span backoff_span(ctx.obs, clock, "exec.backoff");
      if (clock != nullptr) clock->ChargeMicros(backoff);
    }
    // A backoff that blows the budget ends the loop here instead of
    // burning another full attempt.
    const Status after_backoff = ctx.Checkpoint("retry backoff");
    if (!after_backoff.ok()) {
      last = after_backoff;
      diag.attempts = attempt;
      break;
    }
  }
  diag.primary = last;
  diag.charged_micros =
      clock != nullptr ? clock->ElapsedMicros() - entry_micros : 0;
  if (diagnostics != nullptr) *diagnostics = diag;
  return last;
}

std::optional<Answer> QueryGraphExecutor::ExecuteFromCache(
    const query::QueryGraph& gq, const ExecContext& ctx) const {
  if (cache_ == nullptr || gq.size() == 0) return std::nullopt;
  const nlp::Spoc& spoc = gq.vertices()[0];  // the main clause
  auto hit = cache_->GetPath(PathKey(spoc), ctx);
  if (!hit.has_value()) return std::nullopt;
  // Synonym-only predicate filter: the degraded path must stay cheap
  // and fault-free, so no embedding sweep and no maxScore fallback.
  const auto verdicts = PredicateVerdicts(spoc.predicate);
  std::vector<RelationPair> ap;
  ap.reserve((*hit)->size());
  for (const auto& p : **hit) {
    if ((*verdicts)[p.label] != 0) ap.push_back(p);
  }
  if (ap.empty()) return std::nullopt;
  Answer ans = MakeAnswer(gq, spoc, ap);
  ans.diagnostics.rung = DegradationRung::kCachedSubgraph;
  return ans;
}

}  // namespace svqa::exec
