// Execution golden (TEST_P over world seeds): pins the answers, charged
// virtual costs, retry schedules and cache/memo counters of Algorithm 3
// over randomized worlds and workloads that exercise hyponym expansion,
// possessive resolution, constraints and near-miss (Levenshtein)
// vocabulary. Each (option set, mode) pass is folded into one FNV-1a
// hash of every observable bit.
//
// The constants were captured from the pre-snapshot mutable-graph
// executor, and the frozen CSR executor reproduced them before that
// executor was removed, so the FrozenGraph path stays pinned to the
// reference outputs it replaced: serially under LFU and LRU, across
// batch worker counts, under deterministic fault injection with
// retries, and on the cached-subgraph degradation rung. Option sets:
// the shipped defaults and the paper's Fig. 10/11 pre-index cost model
// (label index and similarity memos off).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/mvqa_generator.h"
#include "exec/batch_executor.h"
#include "exec/executor.h"
#include "text/lexicon.h"
#include "util/fault_injector.h"

namespace svqa::exec {
namespace {

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void AddAnswer(const Answer& a, Fnv* h) {
  h->Add(static_cast<uint64_t>(a.type));
  h->Add(a.text);
  h->Add(static_cast<uint64_t>(a.yes));
  h->Add(static_cast<uint64_t>(a.count));
  h->Add(static_cast<uint64_t>(a.entities.size()));
  for (const auto& e : a.entities) h->Add(e);
  h->Add(static_cast<uint64_t>(a.provenance.size()));
  for (const SupportFact& f : a.provenance) {
    h->Add(static_cast<uint64_t>(static_cast<int64_t>(f.image)));
    h->Add(f.subject);
    h->Add(f.predicate);
    h->Add(f.object);
  }
}

void AddResult(const Result<Answer>& r, Fnv* h) {
  h->Add(static_cast<uint64_t>(r.status().code()));
  if (r.ok()) AddAnswer(r.ValueOrDie(), h);
}

/// Elapsed virtual micros plus every per-kind op count.
void AddCost(const SimClock& clock, Fnv* h) {
  h->Add(clock.ElapsedMicros());
  for (int k = 0; k < static_cast<int>(CostKind::kNumKinds); ++k) {
    h->Add(clock.OpCount(static_cast<CostKind>(k)));
  }
}

void AddStats(const cache::CacheStats& s, Fnv* h) {
  h->Add(s.hits);
  h->Add(s.misses);
  h->Add(s.evictions);
  h->Add(s.inserts);
}

void AddMemo(const MemoStats& s, Fnv* h) {
  h->Add(s.hits);
  h->Add(s.misses);
}

nlp::SpocElement El(std::string head, bool variable = false) {
  nlp::SpocElement e;
  e.text = head;
  e.head = std::move(head);
  e.is_variable = variable;
  return e;
}

/// The two option sets every mode runs under.
enum OptionSet { kDefaults = 0, kPaperModel = 1, kNumOptionSets = 2 };

ExecutorOptions OptionsFor(int set) {
  ExecutorOptions opts;
  if (set == kPaperModel) {
    opts.matcher.use_label_index = false;
    opts.matcher.memoize_similarity = false;
    opts.memoize_similarity = false;
  }
  return opts;
}

/// Golden hashes per (seed, option set), taken from the mutable-graph
/// executor.
struct Golden {
  uint64_t seed;
  int set;
  uint64_t serial_lfu;
  uint64_t serial_lru;
  uint64_t batch_1;
  uint64_t batch_4;
  uint64_t resilient;
};

constexpr Golden kGolden[] = {
    {3, kDefaults, 4787624311347939323ULL, 16796268573806105406ULL,
     5705732916059990606ULL, 2942358126762971735ULL, 9368331242264076440ULL},
    {3, kPaperModel, 17299136443018221590ULL, 11711576114006120719ULL,
     12396434197819522461ULL, 12648621930144053252ULL, 15866899197942723601ULL},
    {17, kDefaults, 10497689346577898925ULL, 16891841567480327023ULL,
     14575132670930710541ULL, 10407327505955535516ULL, 16029054730570048498ULL},
    {17, kPaperModel, 4259245814270465901ULL, 5182612704003517646ULL,
     17779796565732262894ULL, 16941823857984984848ULL, 12557514922547304424ULL},
    {404, kDefaults, 11772348089198925817ULL, 3092098787474656890ULL,
     13202476601044314207ULL, 96651693336589436ULL, 12220789557766904414ULL},
    {404, kPaperModel, 9043608303909025000ULL, 17188709024071827175ULL,
     17726924979539427636ULL, 63331914991388554ULL, 4119015057610459669ULL},
};

const Golden& GoldenFor(uint64_t seed, int set) {
  for (const Golden& g : kGolden) {
    if (g.seed == seed && g.set == set) return g;
  }
  ADD_FAILURE() << "no golden for seed " << seed;
  return kGolden[0];
}

class FrozenEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    data::MvqaOptions opts;
    opts.world.num_scenes = 60;
    opts.world.seed = GetParam();
    opts.seed = GetParam() * 31 + 7;
    dataset_ = std::make_unique<data::MvqaDataset>(
        data::MvqaGenerator(opts).Generate());
    embeddings_ = std::make_unique<text::EmbeddingModel>(
        text::SynonymLexicon::Default());
  }

  /// The workload: every generated gold graph (hyponyms, possessives,
  /// constraints, all question types) plus hand-typoed near-miss
  /// judgments that force the Levenshtein fallback scan.
  std::vector<query::QueryGraph> Workload() const {
    std::vector<query::QueryGraph> graphs;
    for (const auto& q : dataset_->questions) {
      graphs.push_back(q.gold_graph);
    }
    const graph::Graph& g = dataset_->perfect_merged.graph;
    std::vector<std::string> typoed;
    for (graph::VertexId v = 0; v < g.num_vertices() && typoed.size() < 6;
         ++v) {
      std::string cat = g.vertex(v).category;
      if (cat.size() < 4) continue;
      char& c = cat[cat.size() / 2];
      c = c == 'z' ? 'a' : static_cast<char>(c + 1);
      if (std::find(typoed.begin(), typoed.end(), cat) != typoed.end()) {
        continue;
      }
      typoed.push_back(cat);
      nlp::Spoc spoc;
      spoc.subject = El(cat);
      spoc.predicate = "chases";
      spoc.object = El("animal", /*variable=*/true);
      graphs.emplace_back("near-miss " + cat, nlp::QuestionType::kJudgment,
                          std::vector<nlp::Spoc>{spoc},
                          std::vector<query::QueryEdge>{});
    }
    return graphs;
  }

  QueryGraphExecutor MakeExecutor(int set, KeyCentricCache* cache) const {
    return QueryGraphExecutor(&dataset_->perfect_merged, embeddings_.get(),
                              cache, OptionsFor(set));
  }

  /// Serial Execute over the workload, then the cached-subgraph rung
  /// (ExecuteFromCache) for every query against the warmed cache. Runs
  /// at the default pool size and at a pool small enough to evict, where
  /// the policies diverge.
  uint64_t SerialHash(int set, CachePolicy policy) const {
    Fnv h;
    for (const std::size_t capacity : {std::size_t{100}, std::size_t{8}}) {
      h.Add(static_cast<uint64_t>(capacity));
      h.Add(SerialPassHash(set, policy, capacity));
    }
    return h.value();
  }

  uint64_t SerialPassHash(int set, CachePolicy policy,
                          std::size_t capacity) const {
    KeyCentricCacheOptions copts;
    copts.policy = policy;
    copts.capacity = capacity;
    KeyCentricCache cache(copts);
    const QueryGraphExecutor executor = MakeExecutor(set, &cache);
    Fnv h;
    const auto graphs = Workload();
    for (const auto& gq : graphs) {
      SimClock clock;
      AddResult(executor.Execute(gq, &clock), &h);
      AddCost(clock, &h);
    }
    AddStats(cache.ScopeStats(), &h);
    AddStats(cache.PathStats(), &h);
    AddMemo(executor.matcher().similarity_memo_stats(), &h);
    for (const auto& gq : graphs) {
      SimClock clock;
      const std::optional<Answer> degraded =
          executor.ExecuteFromCache(gq, ExecContext::WithClock(&clock));
      h.Add(static_cast<uint64_t>(degraded.has_value()));
      if (degraded.has_value()) {
        AddAnswer(*degraded, &h);
        h.Add(static_cast<uint64_t>(degraded->diagnostics.rung));
      }
      AddCost(clock, &h);
    }
    AddStats(cache.TotalStats(), &h);
    return h.value();
  }

  uint64_t BatchHash(int set, std::size_t workers) const {
    KeyCentricCache cache;
    const QueryGraphExecutor executor = MakeExecutor(set, &cache);
    BatchOptions bopts;
    bopts.num_workers = workers;
    const BatchResult result =
        BatchExecutor(&executor, bopts).ExecuteAll(Workload());
    Fnv h;
    h.Add(static_cast<uint64_t>(result.outcomes.size()));
    for (const QueryOutcome& o : result.outcomes) {
      h.Add(static_cast<uint64_t>(o.status.code()));
      AddAnswer(o.answer, &h);
      h.Add(o.latency_micros);
      h.Add(static_cast<uint64_t>(o.diagnostics.attempts));
    }
    h.Add(result.total_micros);
    for (const double load : result.worker_micros) h.Add(load);
    AddCost(result.ops, &h);
    AddStats(cache.TotalStats(), &h);
    return h.value();
  }

  uint64_t ResilientHash(int set) const {
    const FaultInjector injector(GetParam() * 101 + 13,
                                 FaultConfig::Uniform(0.05));
    ResilienceOptions resilience;
    resilience.fault_policy = &injector;
    resilience.retry.max_attempts = 3;
    KeyCentricCache cache;
    const QueryGraphExecutor executor = MakeExecutor(set, &cache);
    Fnv h;
    uint64_t query = 0;
    for (const auto& gq : Workload()) {
      SimClock clock;
      Diagnostics diag;
      AddResult(executor.ExecuteResilient(gq, &clock, resilience, query++,
                                          &diag),
                &h);
      h.Add(static_cast<uint64_t>(diag.attempts));
      h.Add(diag.backoff_micros);
      AddCost(clock, &h);
    }
    AddStats(cache.TotalStats(), &h);
    return h.value();
  }

  std::unique_ptr<data::MvqaDataset> dataset_;
  std::unique_ptr<text::EmbeddingModel> embeddings_;
};

TEST_P(FrozenEquivalenceTest, SerialAnswersChargesAndCacheCountersMatch) {
  for (int set = 0; set < kNumOptionSets; ++set) {
    const Golden& g = GoldenFor(GetParam(), set);
    EXPECT_EQ(SerialHash(set, CachePolicy::kLfu), g.serial_lfu)
        << "set " << set << " LFU";
    EXPECT_EQ(SerialHash(set, CachePolicy::kLru), g.serial_lru)
        << "set " << set << " LRU";
  }
}

TEST_P(FrozenEquivalenceTest, BatchMatchesMutableAcrossWorkerCounts) {
  for (int set = 0; set < kNumOptionSets; ++set) {
    const Golden& g = GoldenFor(GetParam(), set);
    EXPECT_EQ(BatchHash(set, 1), g.batch_1) << "set " << set;
    EXPECT_EQ(BatchHash(set, 4), g.batch_4) << "set " << set;
  }
}

TEST_P(FrozenEquivalenceTest, FaultInjectionAndRetriesMatch) {
  for (int set = 0; set < kNumOptionSets; ++set) {
    EXPECT_EQ(ResilientHash(set), GoldenFor(GetParam(), set).resilient)
        << "set " << set;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenEquivalenceTest,
                         ::testing::Values(3u, 17u, 404u));

}  // namespace
}  // namespace svqa::exec
