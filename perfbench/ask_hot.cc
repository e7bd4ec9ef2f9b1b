// Workload `ask_hot`: the online phase as the paper reports it. One
// closed-loop client calls SvqaEngine::Ask over the seed's question pool
// in a seed-shuffled order that repeats, so the key-centric cache stays
// warm.

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace svqa;

constexpr int kNumKinds = static_cast<int>(CostKind::kNumKinds);

/// What one pass over the question order must reproduce bit for bit on
/// an engine that saw the same question sequence.
struct EpochFacts {
  std::vector<double> virtual_micros;  // per question, in asking order
  double ops[kNumKinds] = {};
  cache::CacheStats cache;  // cumulative, read after the epoch

  void Add(const SimClock& clock) {
    virtual_micros.push_back(clock.ElapsedMicros());
    for (int k = 0; k < kNumKinds; ++k) {
      ops[k] += clock.OpCount(static_cast<CostKind>(k));
    }
  }
  bool operator==(const EpochFacts& o) const {
    for (int k = 0; k < kNumKinds; ++k) {
      if (ops[k] != o.ops[k]) return false;
    }
    return virtual_micros == o.virtual_micros && cache.hits == o.cache.hits &&
           cache.misses == o.cache.misses &&
           cache.evictions == o.cache.evictions &&
           cache.inserts == o.cache.inserts;
  }
};

struct AskSetup {
  data::MvqaDataset dataset;
  /// The measured engine (Ingest over the world's images).
  std::unique_ptr<core::SvqaEngine> engine;
  /// A second engine over the same merged graph: replays the question
  /// sequence for the determinism check, and in the traced run splits
  /// each Ask into Parse + Execute.
  std::unique_ptr<core::SvqaEngine> replay;
  /// Answers of a cache-less engine over the same graph.
  std::vector<AnswerKey> reference;
  std::vector<std::size_t> order;
};

std::unique_ptr<AskSetup> MakeSetup(uint64_t seed, Report* report) {
  auto s = std::make_unique<AskSetup>();
  s->dataset = MakeDataset(seed);
  s->engine = std::make_unique<core::SvqaEngine>();
  Status st = s->engine->Ingest(s->dataset.knowledge_graph,
                                s->dataset.world.scenes);
  if (!st.ok()) report->Fail("Ingest: " + st.ToString());
  s->replay = std::make_unique<core::SvqaEngine>();
  st = s->replay->IngestMerged(s->engine->merged());
  if (!st.ok()) report->Fail("replay IngestMerged: " + st.ToString());
  core::SvqaOptions uncached;
  uncached.enable_cache = false;
  core::SvqaEngine reference(uncached);
  st = reference.IngestMerged(s->engine->merged());
  if (!st.ok()) report->Fail("reference IngestMerged: " + st.ToString());
  for (const auto& q : s->dataset.questions) {
    Result<exec::Answer> a = reference.Ask(q.text);
    s->reference.push_back(a.ok() ? AnswerKey::Of(*a) : AnswerKey{});
  }
  s->order = Shuffled(s->dataset.questions.size(), seed);
  return s;
}

/// Checks one answer against the reference; a degraded answer fails.
bool CheckAnswer(const AskSetup& s, std::size_t q,
                 const Result<exec::Answer>& a, Report* report) {
  if (!a.ok()) {
    report->Fail("Ask failed: " + a.status().ToString());
    return false;
  }
  if (a->diagnostics.rung != exec::DegradationRung::kFullExecution) {
    report->Fail("degraded answer to: " + s.dataset.questions[q].text);
    return false;
  }
  if (!(AnswerKey::Of(*a) == s.reference[q])) {
    report->Fail("answer '" + a->text + "' differs from the reference '" +
                 s.reference[q].text + "' for: " +
                 s.dataset.questions[q].text);
    return false;
  }
  return true;
}

/// Asks the first two epochs (cold, then warm) on `engine`.
std::vector<EpochFacts> ReplayEpochs(const AskSetup& s,
                                     core::SvqaEngine* engine,
                                     Report* report) {
  std::vector<EpochFacts> epochs(2);
  for (EpochFacts& epoch : epochs) {
    for (std::size_t q : s.order) {
      SimClock clock;
      CheckAnswer(s, q, engine->Ask(s.dataset.questions[q].text, &clock),
                  report);
      epoch.Add(clock);
    }
    epoch.cache = engine->cache()->TotalStats();
  }
  return epochs;
}

void RunUntraced(const RunConfig& config, AskSetup& s, double setup_s,
                 Report* report) {
  std::vector<EpochFacts> epochs(2);
  std::vector<double> latency, done_at;
  const double begin = NowMicros();
  const double deadline = begin + config.seconds * 1e6;
  // Epoch 0 warms the cache and is not timed; every later epoch is.
  for (std::size_t e = 0; e < 3 || NowMicros() < deadline; ++e) {
    for (std::size_t q : s.order) {
      SimClock clock;
      const double start = NowMicros();
      Result<exec::Answer> a =
          s.engine->Ask(s.dataset.questions[q].text, &clock);
      const double end = NowMicros();
      if (e > 0) {
        latency.push_back(end - start);
        done_at.push_back(end - begin);
      }
      report->Attempt(CheckAnswer(s, q, a, report));
      if (e < epochs.size()) epochs[e].Add(clock);
    }
    if (e < epochs.size()) epochs[e].cache = s.engine->cache()->TotalStats();
  }
  if (!(ReplayEpochs(s, s.replay.get(), report) == epochs)) {
    report->Fail("virtual costs, op counts or cache counts differ between "
                 "two engines asked the same sequence");
  }

  std::size_t right = 0;
  for (std::size_t q = 0; q < s.dataset.questions.size(); ++q) {
    if (s.reference[q].text == s.dataset.questions[q].gold_answer) ++right;
  }
  const std::vector<double>& warm = epochs[1].virtual_micros;
  report->Set("setup_s", setup_s);
  report->Set("throughput_per_s",
              Percentile(WindowRates(done_at, latency), kSlowShare));
  report->Set("virtual_mean_ms", Mean(warm) / 1e3);
  report->Set("virtual_p50_ms", Median(warm) / 1e3);
  report->Set("virtual_p99_ms", Percentile(warm, 0.99) / 1e3);
  report->Set("answer_accuracy",
              static_cast<double>(right) /
                  static_cast<double>(s.dataset.questions.size()));
  report->Samples("timed_asks", latency.size());
  report->Samples("warm_epoch_questions", warm.size());
}

void RunTraced(const RunConfig& config, AskSetup& s, Report* report) {
  // The measured engine answers each question with Ask (untraced, timed);
  // the replay engine then answers it as Parse + Execute under spans.
  // Both see the same question sequence, so their caches evolve alike.
  SpanLog log(NowMicros());
  std::vector<EpochFacts> asked(2), split(2);
  std::vector<double> parse_us, execute_us;
  std::vector<double> quadruples;
  double ask_total = 0;
  uint64_t degraded = 0, asks = 0, alloc_bytes = 0;
  uint64_t tid = 0;
  const double deadline = NowMicros() + config.seconds * 1e6;
  for (std::size_t e = 0; e < 3 || NowMicros() < deadline; ++e) {
    for (std::size_t q : s.order) {
      const std::string& text = s.dataset.questions[q].text;
      SimClock ask_clock;
      const double ask_start = NowMicros();
      Result<exec::Answer> a = s.engine->Ask(text, &ask_clock);
      ask_total += NowMicros() - ask_start;
      ++asks;
      if (a.ok() &&
          a->diagnostics.rung != exec::DegradationRung::kFullExecution) {
        ++degraded;
      }
      report->Attempt(CheckAnswer(s, q, a, report));

      SimClock clock;
      const uint64_t bytes_before = AllocatedBytes();
      SetAllocCounting(true);
      const double t0 = NowMicros();
      Result<query::QueryGraph> graph = s.replay->Parse(text, &clock);
      const double t1 = NowMicros();
      Result<exec::Answer> b =
          graph.ok() ? s.replay->Execute(*graph, &clock)
                     : Result<exec::Answer>(graph.status());
      const double t2 = NowMicros();
      SetAllocCounting(false);
      alloc_bytes += AllocatedBytes() - bytes_before;
      ++tid;
      log.Add(tid, 1, 0, "ask", t0, t2);
      log.Add(tid, 2, 1, "query.parse", t0, t1);
      log.Add(tid, 3, 1, "exec.execute", t1, t2);
      parse_us.push_back(t1 - t0);
      execute_us.push_back(t2 - t1);
      CheckAnswer(s, q, b, report);
      // Parse + Execute must charge exactly what Ask charged.
      if (clock.ElapsedMicros() != ask_clock.ElapsedMicros()) {
        report->Fail("Parse + Execute charged " +
                     std::to_string(clock.ElapsedMicros()) +
                     " virtual us, Ask charged " +
                     std::to_string(ask_clock.ElapsedMicros()) +
                     " for: " + text);
      }
      if (e < 2) {
        asked[e].Add(ask_clock);
        split[e].Add(clock);
        if (e == 1 && graph.ok()) {
          quadruples.push_back(static_cast<double>(graph->size()));
        }
      }
    }
    if (e < 2) {
      asked[e].cache = s.engine->cache()->TotalStats();
      split[e].cache = s.replay->cache()->TotalStats();
    }
  }
  if (!(asked == split)) {
    report->Fail("Parse + Execute and Ask disagree on op or cache counts");
  }

  const std::string path = config.out_dir + "/ask_hot.trace.json";
  if (!log.WriteChromeTrace(path)) report->Fail("cannot write " + path);
  const auto by_name = AnalyzeTrace(path, report);
  double covered = 0, traced = 0;
  if (auto it = by_name.find("ask"); it != by_name.end()) {
    traced = it->second.total_micros;
    covered = it->second.total_micros - it->second.self_micros;
  }
  // Op counts per question, and cache counts, over the cold and the
  // first warm epoch.
  auto per_question = [&](CostKind kind) {
    const int k = static_cast<int>(kind);
    return (split[0].ops[k] + split[1].ops[k]) /
           static_cast<double>(split[0].virtual_micros.size() +
                               split[1].virtual_micros.size());
  };
  const cache::CacheStats& cache = split[1].cache;
  const double n = static_cast<double>(asks);
  report->Set("query.parse_us_p50", Median(parse_us));
  report->Set("query.parse_us_p99", Percentile(parse_us, 0.99));
  report->Set("query.parse_token_ops", per_question(CostKind::kParseToken));
  report->Set("query.parse_transition_ops",
              per_question(CostKind::kParseTransition));
  report->Set("query.quadruples_per_question", Mean(quadruples));
  report->Set("exec.execute_us_p50", Median(execute_us));
  report->Set("exec.execute_us_p99", Percentile(execute_us, 0.99));
  report->Set("exec.vertex_compare_ops",
              per_question(CostKind::kVertexCompare));
  report->Set("exec.edge_traverse_ops",
              per_question(CostKind::kEdgeTraverse));
  report->Set("exec.levenshtein_ops", per_question(CostKind::kLevenshtein));
  report->Set("exec.embedding_sim_ops",
              per_question(CostKind::kEmbeddingSim));
  report->Set("exec.alloc_bytes_per_question",
              static_cast<double>(alloc_bytes) / n);
  report->Set("exec.degraded_frac", static_cast<double>(degraded) / n);
  report->Set("cache.hits", static_cast<double>(cache.hits));
  report->Set("cache.misses", static_cast<double>(cache.misses));
  report->Set("cache.evictions", static_cast<double>(cache.evictions));
  report->Set("cache.hit_rate", cache.HitRate());
  report->Set("cache.probe_ops", per_question(CostKind::kCacheProbe));
  report->Set("ask.unattributed_frac", 1.0 - covered / ask_total);
  report->Set("trace.overhead_frac", traced / ask_total - 1.0);
  report->Samples("traced_questions", asks);
  report->Samples("spans", log.size());
}

}  // namespace

void RunAskHot(const RunConfig& config, Report* report) {
  double setup_s = 0;
  const std::unique_ptr<AskSetup> s = TimedSetups<AskSetup>(
      kSetups, [&] { return MakeSetup(config.seed, report); }, &setup_s);
  if (config.trace) {
    RunTraced(config, *s, report);
  } else {
    RunUntraced(config, *s, setup_s, report);
  }
}

}  // namespace perfbench
