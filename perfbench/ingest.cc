// Workload `ingest`: the offline phase. A fresh SvqaEngine per
// iteration, durable on an in-memory SimFs, runs Ingest(kg, scenes)
// over the seed's 4,233-image MVQA world.

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/vocabulary.h"
#include "storage/sim_fs.h"
#include "text/embedding.h"
#include "text/lexicon.h"
#include "vision/scene_graph_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace svqa;

constexpr char kDbDir[] = "svqa_db";

/// The outputs that must repeat bit for bit on every ingest of one seed.
struct IngestFacts {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::size_t relations = 0;
  double virtual_micros = 0;
  uint64_t wal_bytes = 0;
  uint64_t snapshot_bytes = 0;

  bool operator==(const IngestFacts& o) const {
    return vertices == o.vertices && edges == o.edges &&
           relations == o.relations && virtual_micros == o.virtual_micros &&
           wal_bytes == o.wal_bytes && snapshot_bytes == o.snapshot_bytes;
  }
  std::string ToString() const {
    return "V=" + std::to_string(vertices) + " E=" + std::to_string(edges) +
           " rel=" + std::to_string(relations) +
           " virtual_us=" + std::to_string(virtual_micros) +
           " wal=" + std::to_string(wal_bytes) +
           " snap=" + std::to_string(snapshot_bytes);
  }
};

/// Host time of each stage of one staged ingest, in microseconds.
struct StageMicros {
  double root = 0;
  double stages = 0;  // sum of the stage spans
};

/// \brief The public-call sequence SvqaEngine::Ingest makes, one stage
/// at a time: FitBias -> GenerateAll -> Merge -> LogIntent -> Publish,
/// with the publish split into the durability hook it runs first
/// (OnPublish, the snapshot file) and the snapshot build (Freeze +
/// interning). With a span log each stage gets a span under one root.
class StagedIngest {
 public:
  StagedIngest() : embeddings_(lexicon_, core::SvqaOptions{}.seed) {}

  /// Runs the stages over `dataset`. `merged_out`, when given, receives a
  /// copy of the merged graph.
  IngestFacts Run(const data::MvqaDataset& dataset, SpanLog* log,
                  uint64_t tid, StageMicros* times,
                  aggregator::MergedGraph* merged_out,
                  std::size_t* frozen_bytes) const {
    const core::SvqaOptions opts;
    storage::SimFs fs;
    serve::SnapshotDurability durability(&fs, kDbDir,
                                         opts.durability.options);
    serve::SnapshotStoreOptions store_opts;
    store_opts.enable_cache = opts.enable_cache;
    store_opts.cache = opts.cache;
    store_opts.executor = opts.executor;
    serve::GraphSnapshotStore store(&embeddings_, store_opts);

    SimClock clock;
    IngestFacts facts;
    uint32_t next_id = 2;
    double stage_sum = 0;
    auto stage = [&](const char* name, auto&& call) {
      const double start = NowMicros();
      call();
      const double end = NowMicros();
      if (log != nullptr) log->Add(tid, next_id++, 1, name, start, end);
      stage_sum += end - start;
    };

    const double root_start = NowMicros();
    vision::DetectorOptions det = opts.detector;
    det.seed = opts.seed;
    auto model = std::make_shared<vision::RelationModel>(
        opts.sgg_model, data::Vocabulary::Default().scene_predicates,
        vision::RelationModel::DefaultOptionsFor(opts.sgg_model));
    stage("vision.fit_bias", [&] { model->FitBias(dataset.world.scenes); });
    const vision::SceneGraphGenerator generator(
        vision::SimulatedDetector(det), model, opts.sgg_mode);
    std::vector<vision::SceneGraphResult> scene_graphs;
    stage("vision.sgg", [&] {
      scene_graphs = generator.GenerateAll(dataset.world.scenes, &clock);
    });
    Result<aggregator::MergedGraph> merged = Status::Internal("not merged");
    stage("aggregator.merge", [&] {
      merged = aggregator::GraphMerger(opts.merger)
                   .Merge(dataset.knowledge_graph, scene_graphs, &clock);
    });
    if (!merged.ok()) return facts;
    Status logged = Status::OK();
    stage("storage.log_intent", [&] {
      logged = durability.LogIntent(*merged, store.symbols().get()).status();
    });
    if (!logged.ok()) return facts;
    stage("storage.persist",
          [&] { durability.OnPublish(*merged, store.symbols().get()); });
    for (const auto& sg : scene_graphs) facts.relations += sg.relations.size();
    facts.vertices = merged->graph.num_vertices();
    facts.edges = merged->graph.num_edges();
    if (merged_out != nullptr) *merged_out = *merged;
    stage("graph.publish", [&] { store.Publish(std::move(*merged)); });
    const double root_end = NowMicros();
    if (log != nullptr) log->Add(tid, 1, 0, "ingest", root_start, root_end);

    facts.virtual_micros = clock.ElapsedMicros();
    const serve::DurabilityStats stats = durability.stats();
    facts.wal_bytes = stats.wal_bytes;
    facts.snapshot_bytes = stats.snapshot_bytes;
    if (times != nullptr) *times = {root_end - root_start, stage_sum};
    if (frozen_bytes != nullptr) {
      *frozen_bytes = store.Current()->frozen()->ApproxBytes();
    }
    return facts;
  }

 private:
  text::SynonymLexicon lexicon_ = text::SynonymLexicon::Default();
  text::EmbeddingModel embeddings_;
};

/// A durable engine and the file system it writes to (declared first,
/// so it outlives the engine).
struct DurableEngine {
  storage::SimFs fs;
  std::unique_ptr<core::SvqaEngine> engine;

  DurableEngine() {
    core::SvqaOptions opts;
    opts.durability.env = &fs;
    opts.durability.dir = kDbDir;
    engine = std::make_unique<core::SvqaEngine>(opts);
  }
};

struct IngestSetup {
  data::MvqaDataset dataset;
  StagedIngest staged;
  IngestFacts reference;
  std::size_t frozen_bytes = 0;
  /// Answers of an engine adopting the staged pipeline's merged graph.
  std::vector<AnswerKey> reference_answers;
};

std::unique_ptr<IngestSetup> MakeSetup(uint64_t seed, Report* report) {
  auto s = std::make_unique<IngestSetup>();
  s->dataset = MakeDataset(seed);
  aggregator::MergedGraph merged;
  s->reference = s->staged.Run(s->dataset, nullptr, 0, nullptr, &merged,
                               &s->frozen_bytes);
  core::SvqaEngine adopted;
  const Status st = adopted.IngestMerged(std::move(merged));
  if (!st.ok()) report->Fail("reference IngestMerged: " + st.ToString());
  for (const auto& q : s->dataset.questions) {
    Result<exec::Answer> a = adopted.Ask(q.text);
    s->reference_answers.push_back(a.ok() ? AnswerKey::Of(*a) : AnswerKey{});
  }
  return s;
}

/// One untraced, measured Ingest; checks its outputs against the staged
/// reference. Returns the engine for later checks.
std::unique_ptr<DurableEngine> MeasuredIngest(const IngestSetup& s,
                                              std::vector<double>* micros,
                                              Report* report) {
  auto de = std::make_unique<DurableEngine>();
  SimClock clock;
  const double start = NowMicros();
  const Status st = de->engine->Ingest(s.dataset.knowledge_graph,
                                       s.dataset.world.scenes, &clock);
  micros->push_back(NowMicros() - start);
  if (!st.ok()) {
    report->Fail("Ingest: " + st.ToString());
    report->Attempt(false);
    return de;
  }
  IngestFacts facts;
  const aggregator::MergedGraph& merged = de->engine->merged();
  facts.vertices = merged.graph.num_vertices();
  facts.edges = merged.graph.num_edges();
  for (const auto& sg : de->engine->scene_graphs()) {
    facts.relations += sg.relations.size();
  }
  facts.virtual_micros = clock.ElapsedMicros();
  const serve::DurabilityStats stats = de->engine->durability()->stats();
  facts.wal_bytes = stats.wal_bytes;
  facts.snapshot_bytes = stats.snapshot_bytes;
  const bool same = facts == s.reference;
  if (!same) {
    report->Fail("ingest outputs " + facts.ToString() +
                 " differ from the staged reference " +
                 s.reference.ToString());
  }
  report->Attempt(same);
  return de;
}

/// Asks every question on the last ingested engine: answers must equal
/// the staged reference's; accuracy is scored against gold.
double CheckAnswers(const IngestSetup& s, core::SvqaEngine* engine,
                    Report* report) {
  std::size_t right = 0, mismatched = 0;
  const auto& questions = s.dataset.questions;
  for (std::size_t i = 0; i < questions.size(); ++i) {
    Result<exec::Answer> a = engine->Ask(questions[i].text);
    if (!a.ok() || !(AnswerKey::Of(*a) == s.reference_answers[i])) {
      ++mismatched;
      continue;
    }
    if (a->text == questions[i].gold_answer) ++right;
  }
  if (mismatched != 0) {
    report->Fail(std::to_string(mismatched) +
                 " answers of the ingested snapshot differ from the "
                 "staged reference");
  }
  return questions.empty() ? 0
                           : static_cast<double>(right) /
                                 static_cast<double>(questions.size());
}

}  // namespace

void RunIngest(const RunConfig& config, Report* report) {
  double setup_s = 0;
  const std::unique_ptr<IngestSetup> s = TimedSetups<IngestSetup>(
      kSetups, [&] { return MakeSetup(config.seed, report); }, &setup_s);
  const double images = static_cast<double>(s->dataset.world.scenes.size());

  std::vector<double> ingest_micros;
  std::unique_ptr<DurableEngine> last;
  const double deadline = NowMicros() + config.seconds * 1e6;

  if (!config.trace) {
    while (NowMicros() < deadline || ingest_micros.size() < 3) {
      last.reset();
      last = MeasuredIngest(*s, &ingest_micros, report);
    }
    const double virtual_ms = s->reference.virtual_micros / 1e3;
    std::vector<double> rates;
    for (double m : ingest_micros) rates.push_back(images / (m / 1e6));
    report->Set("setup_s", setup_s);
    report->Set("throughput_per_s", Percentile(rates, kSlowShare));
    report->Set("virtual_mean_ms", virtual_ms);
    report->Set("virtual_p50_ms", virtual_ms);
    report->Set("virtual_p99_ms", virtual_ms);
    report->Set("answer_accuracy",
                CheckAnswers(*s, last->engine.get(), report));
    report->Samples("ingest_calls", ingest_micros.size());
    return;
  }

  // Traced run: an untraced Ingest and a traced staged ingest alternate,
  // so both see the same host conditions.
  SpanLog log(NowMicros());
  std::vector<StageMicros> staged;
  uint64_t tid = 0;
  while (NowMicros() < deadline || staged.size() < 3) {
    last.reset();
    last = MeasuredIngest(*s, &ingest_micros, report);
    StageMicros times;
    const IngestFacts facts =
        s->staged.Run(s->dataset, &log, ++tid, &times, nullptr, nullptr);
    if (!(facts == s->reference)) {
      report->Fail("staged ingest " + facts.ToString() +
                   " differs from the reference");
    }
    staged.push_back(times);
  }
  CheckAnswers(*s, last->engine.get(), report);

  const std::string path = config.out_dir + "/ingest.trace.json";
  if (!log.WriteChromeTrace(path)) report->Fail("cannot write " + path);
  const auto by_name = AnalyzeTrace(path, report);
  auto self_ms = [&](const char* name) {
    auto it = by_name.find(name);
    if (it == by_name.end() || it->second.count == 0) return 0.0;
    return it->second.self_micros / static_cast<double>(it->second.count) /
           1e3;
  };
  double untraced = 0, traced = 0, covered = 0;
  for (double m : ingest_micros) untraced += m;
  for (const StageMicros& t : staged) {
    traced += t.root;
    covered += t.stages;
  }
  report->Set("vision.fit_bias_ms", self_ms("vision.fit_bias"));
  report->Set("vision.sgg_us_per_image", self_ms("vision.sgg") * 1e3 / images);
  report->Set("vision.relations_per_image",
              static_cast<double>(s->reference.relations) / images);
  report->Set("aggregator.merge_ms", self_ms("aggregator.merge"));
  report->Set("aggregator.merged_vertices",
              static_cast<double>(s->reference.vertices));
  report->Set("aggregator.merged_edges",
              static_cast<double>(s->reference.edges));
  report->Set("graph.publish_ms", self_ms("graph.publish"));
  report->Set("graph.frozen_bytes", static_cast<double>(s->frozen_bytes));
  report->Set("storage.persist_ms",
              self_ms("storage.log_intent") + self_ms("storage.persist"));
  report->Set("storage.wal_bytes", static_cast<double>(s->reference.wal_bytes));
  report->Set("storage.snapshot_bytes",
              static_cast<double>(s->reference.snapshot_bytes));
  report->Set("ingest.unattributed_frac", 1.0 - covered / untraced);
  report->Set("trace.overhead_frac", traced / untraced - 1.0);
  report->Samples("ingest_calls", ingest_micros.size());
  report->Samples("traced_ingests", staged.size());
  report->Samples("spans", log.size());
}

}  // namespace perfbench
