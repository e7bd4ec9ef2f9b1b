#ifndef SVQA_EXEC_EXECUTOR_H_
#define SVQA_EXEC_EXECUTOR_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aggregator/merger.h"
#include "exec/constraints.h"
#include "graph/frozen_graph.h"
#include "exec/key_centric_cache.h"
#include "exec/relation_pairs.h"
#include "exec/vertex_matcher.h"
#include "query/query_graph.h"
#include "text/embedding.h"
#include "util/cancellation.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/memo_cache.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/sim_clock.h"

namespace svqa::exec {

/// \brief A supporting fact behind an answer: one merged-graph relation
/// pair that survived the filters, with its source image.
struct SupportFact {
  /// Image the relation came from, or graph::kKnowledgeGraphSource for a
  /// knowledge-graph fact.
  int32_t image = graph::kKnowledgeGraphSource;
  std::string subject;
  std::string predicate;
  std::string object;

  std::string ToString() const;
};

/// \brief Which rung of the degradation ladder produced an answer.
enum class DegradationRung {
  /// Normal Algorithm-3 execution succeeded (possibly after retries).
  kFullExecution = 0,
  /// Full execution failed; the answer was recovered from the main
  /// clause's cached relation-pair subgraph.
  kCachedSubgraph = 1,
  /// Nothing usable survived; the conservative fallback answer.
  kConservative = 2,
};

const char* DegradationRungName(DegradationRung rung);

/// \brief Per-answer resilience diagnostics: how hard the pipeline had
/// to work for this answer and how far down the ladder it landed.
struct Diagnostics {
  DegradationRung rung = DegradationRung::kFullExecution;
  /// Outcome of the last full-execution attempt (OK on the top rung; the
  /// failure that forced degradation otherwise).
  Status primary = Status::OK();
  /// Full-execution attempts made (1 = no retries needed).
  int attempts = 1;
  /// Virtual microseconds spent in retry backoff.
  double backoff_micros = 0;
  /// Total virtual micros charged to the query's clock across the whole
  /// resilient call (attempts + backoff): the clock reading at exit
  /// minus the reading at entry, so it reconciles *exactly* — bit for
  /// bit — with the trace's outermost span boundaries (see
  /// exec::QueryCostReport::VerifyReconciliation). 0 when no clock was
  /// passed.
  double charged_micros = 0;
  // --- serving-layer fields (filled by serve::RequestScheduler; defaults
  // mean "not served through a queue") ---------------------------------
  /// Time the request spent in the admission queue before dispatch
  /// (virtual micros in simulated serving, host micros in threaded).
  double queue_wait_micros = 0;
  /// Graph snapshot the answer was computed against (0 = direct
  /// execution outside the snapshot store).
  uint64_t snapshot_id = 0;
  /// serve::PriorityClass the request was admitted under (-1 = direct
  /// execution, no admission control).
  int priority_class = -1;
  /// storage::RecoveryRung the serving state was rebuilt at when the
  /// engine warm-started from disk (-1 = no recovery ran). Kept as an
  /// int so exec stays below the storage layer.
  int recovery_rung = -1;
};

/// \brief The answer to a complex question.
struct Answer {
  nlp::QuestionType type = nlp::QuestionType::kReasoning;
  /// Normalized answer text: "yes"/"no", a decimal count, or an entity /
  /// category label.
  std::string text;
  bool yes = false;    ///< Judgment verdict.
  int64_t count = 0;   ///< Counting result.
  /// All candidate entity answers for reasoning questions, most frequent
  /// first.
  std::vector<std::string> entities;
  /// Evidence: up to kMaxProvenance relation pairs of the main clause
  /// that produced this answer.
  std::vector<SupportFact> provenance;
  /// How this answer was obtained (degradation rung, retries, backoff).
  Diagnostics diagnostics;

  static constexpr std::size_t kMaxProvenance = 10;
};

/// \brief Resilience knobs threaded through the execution pipeline.
struct ResilienceOptions {
  /// Per-query virtual-time budget in microseconds, measured on the
  /// query's own SimClock; <= 0 or non-finite disables the deadline.
  double query_deadline_micros = 0;
  /// Retry transient (kResourceExhausted) failures with jittered
  /// exponential backoff, charged as virtual time.
  bool enable_retries = true;
  RetryPolicy retry;
  /// Fault policy consulted at the pipeline's injection sites; nullptr
  /// disables injection entirely. Not owned.
  const FaultPolicy* fault_policy = nullptr;
  /// Cooperative cancellation; nullptr means not cancellable. Not owned.
  const CancellationToken* cancel = nullptr;
  /// Observability scope for this query (per-query tracer + shared
  /// metric handles, see obs/trace.h); copied onto the ExecContext so
  /// every pipeline stage can emit spans and counters. nullptr (the
  /// default) disables all telemetry for the call. Not owned; must
  /// outlive the execution.
  const obs::Scope* obs = nullptr;
};

/// \brief Executor tuning knobs.
struct ExecutorOptions {
  /// Minimum embedding cosine for predicate label fallback matching.
  double predicate_similarity_threshold = 0.5;
  /// matchVertex configuration (label index, similarity memo).
  VertexMatcherOptions matcher;
  /// Memoize maxScore derivations shared across the batch: the
  /// predicate -> best-edge-label table and constraint resolution. A
  /// memo hit charges one kCacheProbe instead of kEmbeddingSim per
  /// candidate. Disable (together with matcher.memoize_similarity) for
  /// strictly per-query-deterministic virtual latencies.
  bool memoize_similarity = true;
};

/// \brief Algorithm 3: executes a query graph over the merged graph.
///
/// Execution reads a compiled FrozenGraph snapshot of the merged graph
/// (CSR adjacency, interned symbols, id-space comparisons, arena-backed
/// scratch); relation pairs, scopes and answer grouping stay in id
/// space, and text is looked up only for the answer itself.
///
/// Vertices are processed in dependency order (producers first). Each
/// vertex resolves its subject/object scopes (through the scope cache or
/// matchVertex), collects relation pairs (through the path cache or an
/// adjacency scan), filters them by the maxScore-matched predicate and
/// the constraint, and pushes the surviving bindings into its consumers.
/// The main clause (vertex 0) yields the final answer.
///
/// Thread-safety: `Execute` is safe for concurrent calls from batch
/// workers sharing one executor — the snapshot and embeddings are
/// immutable, the key-centric cache is internally locked, and the
/// maxScore memos are thread-safe MemoCaches. Each worker must own its
/// `SimClock`.
class QueryGraphExecutor {
 public:
  /// \param cache optional key-centric cache shared across queries; pass
  /// nullptr for the cache-less configuration.
  /// \param frozen optional precompiled snapshot of `merged->graph`
  /// (e.g. compiled once by the snapshot store and pinned across the
  /// executors sharing it); when none is passed the constructor compiles
  /// one itself.
  QueryGraphExecutor(const aggregator::MergedGraph* merged,
                     const text::EmbeddingModel* embeddings,
                     KeyCentricCache* cache = nullptr,
                     ExecutorOptions options = {},
                     std::shared_ptr<const graph::FrozenGraph> frozen =
                         nullptr);

  /// Executes one query graph.
  Result<Answer> Execute(const query::QueryGraph& gq,
                         SimClock* clock = nullptr) const;

  /// Context-aware execution: polls cancellation and the virtual
  /// deadline at every pipeline check-point and consults the context's
  /// fault policy at the injection sites (matcher scans, relation
  /// scoring, cache ops). Fails with kCancelled / kDeadlineExceeded /
  /// kResourceExhausted (transient fault) / kInternal (permanent fault).
  Result<Answer> Execute(const query::QueryGraph& gq,
                         const ExecContext& ctx) const;

  /// Resilient execution: runs `Execute` under the options' deadline,
  /// cancellation token, and fault policy, retrying transient failures
  /// up to `retry.max_attempts` with jittered exponential backoff
  /// (charged to the clock as virtual time; `salt` decorrelates the
  /// jitter across queries of a batch). Terminal failures (cancelled,
  /// deadline, permanent) are never retried. `diagnostics` (optional)
  /// receives the attempt/backoff record even when the result is an
  /// error — the degradation ladder above builds on it.
  Result<Answer> ExecuteResilient(const query::QueryGraph& gq, SimClock* clock,
                                  const ResilienceOptions& resilience,
                                  uint64_t salt = 0,
                                  Diagnostics* diagnostics = nullptr) const;

  /// Degraded execution (ladder rung 2): answers from the main clause's
  /// cached relation-pair subgraph alone — a synonym-only predicate
  /// filter (the memoized PredicateVerdicts table) over the cached
  /// pairs, no scans, no embedding sweeps.
  /// Returns nullopt when there is no cache, no cached entry for the
  /// main clause, or nothing survives the filter.
  std::optional<Answer> ExecuteFromCache(const query::QueryGraph& gq,
                                         const ExecContext& ctx) const;

  const VertexMatcher& matcher() const { return matcher_; }
  KeyCentricCache* cache() const { return cache_; }
  /// The snapshot this executor runs against.
  const graph::FrozenGraph& frozen() const { return *frozen_; }

  /// The stable path-cache key for a vertex's relation-pair query.
  static std::string PathKey(const nlp::Spoc& spoc);

 private:
  /// Scope resolution through the scope cache: a hit hands back the
  /// shared entry itself; a miss runs matchVertex and stores the result
  /// once.
  Result<ScopeValue> ResolveScope(const nlp::SpocElement& element,
                                  const ExecContext& ctx) const;
  /// maxScore over the merged graph's edge labels (Algorithm 3 line 8).
  Result<std::string> MatchPredicateLabel(const std::string& predicate,
                                          const ExecContext& ctx) const;
  /// Per-edge-label-id verdict of the synonym filter (label ==
  /// predicate or lexicon synonym), memoized per predicate so the
  /// per-pair filter is one indexed byte load.
  std::shared_ptr<const std::vector<uint8_t>> PredicateVerdicts(
      const std::string& predicate) const;
  /// Constraint filter over any RelationPair vector type: an
  /// arena-backed vector when the context carries per-query scratch (the
  /// surviving-pair buffer then bump-allocates), a heap vector
  /// otherwise. Instantiated in executor.cc for both vector types.
  template <typename PairVec>
  Result<PairVec> ApplyConstraint(PairVec pairs, const std::string& constraint,
                                  const ExecContext& ctx) const;
  Answer MakeAnswer(const query::QueryGraph& gq, const nlp::Spoc& spoc,
                    std::span<const RelationPair> pairs) const;
  /// The interned symbol of a vertex's normalized answer text: its
  /// category when `want_kind` or the label is an anonymous detection
  /// ("wizard#3"), its label otherwise. Symbols and texts are bijective.
  graph::SymbolId NormalizeAnswerSymbol(graph::VertexId v,
                                        bool want_kind) const;

  const text::EmbeddingModel* embeddings_;
  /// Compiled snapshot; declared before the matcher, which borrows it.
  std::shared_ptr<const graph::FrozenGraph> frozen_;
  VertexMatcher matcher_;
  KeyCentricCache* cache_;
  ExecutorOptions options_;
  /// maxScore memo: predicate -> best merged-graph edge label.
  mutable MemoCache<std::string, std::string> predicate_label_memo_;
  /// Constraint phrase -> resolved spec memo.
  mutable MemoCache<std::string, ConstraintSpec> constraint_memo_;
  /// Predicate -> per-label-id synonym-filter verdicts.
  mutable MemoCache<std::string, std::shared_ptr<const std::vector<uint8_t>>>
      predicate_verdict_memo_;
};

}  // namespace svqa::exec

#endif  // SVQA_EXEC_EXECUTOR_H_
