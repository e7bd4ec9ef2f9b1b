// Workload `serve_mixed`: the serving layer under load with writes
// beside reads. A threaded pass drives SvqaServer from one closed-loop
// client (a fixed window of outstanding SubmitQuestion calls, priority
// mix 20/30/50) while a publisher thread republishes at a fixed period;
// a simulated pass replays the same request sequence through a
// kSimulated server at a fixed virtual arrival gap.

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace svqa;

constexpr std::size_t kWorkers = 2;
/// Outstanding requests the client keeps in flight. The client takes
/// responses in submit order, so a small window lets one slow question
/// at its head leave the workers idle; 32 keeps them busy.
constexpr std::size_t kWindow = 32;
/// Host period between publishes in the threaded pass.
constexpr double kPublishPeriodMicros = 400'000;
/// Requests replayed by the simulated pass, and their virtual gap (with
/// two workers and ~0.59 virtual s per question, about 85% busy).
constexpr std::size_t kSimulatedRequests = 3000;
constexpr double kSimulatedGapMicros = 350'000;

/// 20% interactive / 30% batch / 50% best-effort, deterministic in i.
serve::PriorityClass MixPriority(std::size_t i) {
  const std::size_t slot = i % 10;
  if (slot < 2) return serve::PriorityClass::kInteractive;
  if (slot < 5) return serve::PriorityClass::kBatch;
  return serve::PriorityClass::kBestEffort;
}

struct ServeSetup {
  data::MvqaDataset dataset;
  std::unique_ptr<core::SvqaEngine> engine;
  /// The two graphs the publisher alternates: the ingested one and the
  /// world's noise-free one (`dataset.perfect_merged`).
  aggregator::MergedGraph ingested;
  std::vector<std::size_t> order;  // request i asks order[i % n]
  /// Per pool question, the single-threaded answer on a snapshot of each
  /// graph (index: noise-free). Snapshots published from the same merged
  /// graph answer alike, so these stand for every republish.
  std::vector<AnswerKey> expected[2];
  std::size_t frozen_bytes = 0;
  /// Which graph the engine's store currently serves.
  bool serving_noise_free = false;

  std::size_t QuestionOf(std::size_t i) const {
    return order[i % order.size()];
  }
  const aggregator::MergedGraph& Graph(bool noise_free) const {
    return noise_free ? dataset.perfect_merged : ingested;
  }
};

std::unique_ptr<ServeSetup> MakeSetup(uint64_t seed, Report* report) {
  auto s = std::make_unique<ServeSetup>();
  s->dataset = MakeDataset(seed);
  s->engine = std::make_unique<core::SvqaEngine>();
  const Status st = s->engine->Ingest(s->dataset.knowledge_graph,
                                      s->dataset.world.scenes);
  if (!st.ok()) report->Fail("Ingest: " + st.ToString());
  s->ingested = s->engine->merged();
  s->frozen_bytes =
      s->engine->snapshot_store()->Current()->frozen()->ApproxBytes();
  serve::GraphSnapshotStore store(&s->engine->embeddings());
  for (bool noise_free : {false, true}) {
    store.Publish(s->Graph(noise_free));
    const serve::SnapshotPtr snap = store.Current();
    for (const auto& q : s->dataset.questions) {
      Result<query::QueryGraph> graph = s->engine->Parse(q.text);
      Result<exec::Answer> a =
          graph.ok() ? snap->executor().Execute(*graph)
                     : Result<exec::Answer>(graph.status());
      if (!a.ok()) report->Fail("reference: " + a.status().ToString());
      s->expected[noise_free].push_back(a.ok() ? AnswerKey::Of(*a)
                                               : AnswerKey{});
    }
  }
  s->order = Shuffled(s->dataset.questions.size(), seed);
  return s;
}

/// \brief What the answer check keeps of one served response: whether
/// it was OK and undegraded, and which graph's expected answer it equals.
struct Served {
  std::size_t q = 0;
  uint64_t snapshot_id = 0;
  bool ok = false;
  bool shed = false;
  bool matches[2] = {false, false};  // index: noise-free

  static Served Of(const ServeSetup& s, std::size_t q,
                   const serve::ServeResponse& r) {
    Served out;
    out.q = q;
    out.snapshot_id = r.snapshot_id;
    out.ok = r.status.ok() &&
             r.answer.diagnostics.rung == exec::DegradationRung::kFullExecution;
    out.shed = r.status.code() == StatusCode::kResourceExhausted;
    const AnswerKey answer = AnswerKey::Of(r.answer);
    for (int g = 0; g < 2; ++g) out.matches[g] = answer == s.expected[g][q];
    return out;
  }
};

/// Checks one response against the expected answer on the graph its
/// snapshot holds; a failed, shed or degraded response fails too.
bool CheckServed(const ServeSetup& s, const Served& r, bool noise_free,
                 Report* report) {
  const std::string& text = s.dataset.questions[r.q].text;
  if (!r.ok) {
    report->Fail("request failed, was shed or degraded: " + text);
    return false;
  }
  if (!r.matches[noise_free]) {
    report->Fail("served answer on snapshot " + std::to_string(r.snapshot_id) +
                 " differs from the single-threaded one: " + text);
    return false;
  }
  return true;
}

struct ThreadedResult {
  double wall_micros = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t publishes = 0;
  std::size_t responses = 0;
  std::vector<double> queue_wait;  // host micros, from the response
  cache::CacheStats cache;         // summed over the pass's snapshots
};

/// The threaded pass: `seconds` of closed-loop traffic with periodic
/// publishes. With a span log, requests and publishes get spans.
ThreadedResult RunThreaded(ServeSetup& s, double seconds, SpanLog* log,
                           uint64_t first_tid, Report* report) {
  serve::ServerOptions opts;
  opts.mode = serve::ServeMode::kThreaded;
  opts.num_workers = kWorkers;
  opts.parser = &s.engine->builder();
  serve::GraphSnapshotStore* store = s.engine->snapshot_store();
  serve::SvqaServer server(store, opts);
  ThreadedResult out;
  const Status started = server.Start();
  if (!started.ok()) {
    report->Fail("server start: " + started.ToString());
    return out;
  }
  // Snapshot id -> whether it holds the noise-free graph.
  std::map<uint64_t, bool> graph_of = {
      {store->latest_id(), s.serving_noise_free}};

  // Publisher: alternates the noise-free and the ingested graph, starting
  // with the one not served now. Each outgoing snapshot's cache counters
  // are read once it is replaced.
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::vector<std::pair<uint64_t, bool>> published;
  SpanLog publish_log(0);
  std::thread publisher([&] {
    const auto period = std::chrono::microseconds(
        static_cast<int64_t>(kPublishPeriodMicros));
    auto next = std::chrono::steady_clock::now() + period;
    for (uint64_t k = 0;; ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (cv.wait_until(lock, next, [&] { return stop; })) return;
      }
      next += period;
      const bool noise_free = (k % 2 == 0) != s.serving_noise_free;
      aggregator::MergedGraph graph = s.Graph(noise_free);
      const serve::SnapshotPtr outgoing = store->Current();
      const double start = NowMicros();
      const uint64_t id = server.Publish(std::move(graph));
      const double end = NowMicros();
      if (log != nullptr) {
        publish_log.Add(first_tid + 1'000'000'000 + k, 1, 0, "serve.publish",
                        start, end);
      }
      published.emplace_back(id, noise_free);
      out.cache.Merge(outgoing->cache()->TotalStats());
    }
  });

  struct Pending {
    serve::TicketPtr ticket;
    std::size_t i;
    double submitted;
  };
  std::deque<Pending> window;
  std::vector<Served> served;
  std::size_t next = 0;
  const double start = NowMicros();
  const double deadline = start + seconds * 1e6;
  auto submit = [&] {
    serve::RequestOptions ro;
    ro.priority = MixPriority(next);
    const std::string& text = s.dataset.questions[s.QuestionOf(next)].text;
    window.push_back({server.SubmitQuestion(text, ro), next, NowMicros()});
    ++next;
  };
  while (window.size() < kWindow) submit();
  while (!window.empty()) {
    Pending p = std::move(window.front());
    window.pop_front();
    const serve::ServeResponse& resp = p.ticket->Wait();
    const double done = NowMicros();
    if (done < deadline) submit();
    ++out.responses;
    out.queue_wait.push_back(resp.queue_wait_micros);
    if (log != nullptr) {
      const uint64_t tid = first_tid + p.i;
      log->Add(tid, 1, 0, "serve.request", p.submitted, done);
      log->Add(tid, 2, 1, "serve.queue_wait", p.submitted,
               p.submitted + resp.queue_wait_micros);
    }
    served.push_back(Served::Of(s, s.QuestionOf(p.i), resp));
  }
  out.wall_micros = NowMicros() - start;
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  publisher.join();
  server.Shutdown();
  if (log != nullptr) log->Append(publish_log);

  out.cache.Merge(store->Current()->cache()->TotalStats());
  out.publishes = published.size();
  for (const auto& [id, noise_free] : published) graph_of[id] = noise_free;
  if (!published.empty()) s.serving_noise_free = published.back().second;
  for (const Served& r : served) {
    auto graph = graph_of.find(r.snapshot_id);
    bool ok = graph != graph_of.end();
    if (!ok) {
      report->Fail("response from unknown snapshot " +
                   std::to_string(r.snapshot_id));
    }
    ok = ok && CheckServed(s, r, graph->second, report);
    report->Attempt(ok);
    if (r.ok) ++out.completed;
    if (r.shed) ++out.shed;
  }
  return out;
}

/// What the simulated pass must reproduce bit for bit.
struct SimulatedResult {
  std::vector<double> latency;     // virtual micros, OK responses
  std::vector<double> queue_wait;  // virtual micros, OK responses
  std::vector<std::string> answers;
  std::size_t shed = 0;
  std::size_t right = 0;  // answers equal to gold

  bool operator==(const SimulatedResult& o) const {
    return latency == o.latency && queue_wait == o.queue_wait &&
           answers == o.answers && shed == o.shed;
  }
};

/// The simulated pass over a fresh store holding the ingested graph.
SimulatedResult RunSimulated(const ServeSetup& s, Report* report) {
  serve::GraphSnapshotStore store(&s.engine->embeddings());
  store.Publish(s.ingested);
  serve::ServerOptions opts;
  opts.mode = serve::ServeMode::kSimulated;
  opts.num_workers = kWorkers;
  opts.parser = &s.engine->builder();
  serve::SvqaServer server(&store, opts);
  SimulatedResult out;
  const Status started = server.Start();
  if (!started.ok()) {
    report->Fail("server start: " + started.ToString());
    return out;
  }
  std::vector<serve::TicketPtr> tickets;
  for (std::size_t i = 0; i < kSimulatedRequests; ++i) {
    serve::RequestOptions ro;
    ro.priority = MixPriority(i);
    ro.arrival_micros = kSimulatedGapMicros * static_cast<double>(i);
    tickets.push_back(server.SubmitQuestion(
        s.dataset.questions[s.QuestionOf(i)].text, ro));
  }
  server.RunSimulated();
  server.Shutdown();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const serve::ServeResponse& resp = tickets[i]->Wait();
    const std::size_t q = s.QuestionOf(i);
    report->Attempt(CheckServed(s, Served::Of(s, q, resp),
                                /*noise_free=*/false, report));
    if (resp.status.code() == StatusCode::kResourceExhausted) ++out.shed;
    if (!resp.status.ok()) continue;
    out.latency.push_back(resp.latency_micros);
    out.queue_wait.push_back(resp.queue_wait_micros);
    out.answers.push_back(resp.answer.text);
    if (resp.answer.text == s.dataset.questions[q].gold_answer) ++out.right;
  }
  return out;
}

}  // namespace

void RunServeMixed(const RunConfig& config, Report* report) {
  double setup_s = 0;
  const std::unique_ptr<ServeSetup> s = TimedSetups<ServeSetup>(
      kSetups, [&] { return MakeSetup(config.seed, report); }, &setup_s);

  const SimulatedResult sim = RunSimulated(*s, report);
  if (!(RunSimulated(*s, report) == sim)) {
    report->Fail("two simulated passes over the same requests differ");
  }

  if (!config.trace) {
    const ThreadedResult run =
        RunThreaded(*s, config.seconds, nullptr, 0, report);
    report->Set("setup_s", setup_s);
    report->Set("throughput_per_s", static_cast<double>(run.completed) /
                                        (run.wall_micros / 1e6));
    report->Set("virtual_mean_ms", Mean(sim.latency) / 1e3);
    report->Set("virtual_p50_ms", Median(sim.latency) / 1e3);
    report->Set("virtual_p99_ms", Percentile(sim.latency, 0.99) / 1e3);
    report->Set("answer_accuracy",
                sim.latency.empty()
                    ? 0
                    : static_cast<double>(sim.right) /
                          static_cast<double>(sim.latency.size()));
    report->Samples("threaded_requests", run.responses);
    report->Samples("simulated_requests", sim.latency.size());
    report->Samples("publishes", run.publishes);
    return;
  }

  // Traced run: half the time untraced, half traced; the throughput
  // ratio is the tracing overhead.
  const ThreadedResult plain =
      RunThreaded(*s, config.seconds / 2, nullptr, 0, report);
  SpanLog log(NowMicros());
  const ThreadedResult traced =
      RunThreaded(*s, config.seconds / 2, &log, 1, report);
  const std::string path = config.out_dir + "/serve_mixed.trace.json";
  if (!log.WriteChromeTrace(path)) report->Fail("cannot write " + path);
  const auto by_name = AnalyzeTrace(path, report);
  double publish_ms = 0;
  if (auto it = by_name.find("serve.publish");
      it != by_name.end() && it->second.count > 0) {
    publish_ms = it->second.self_micros /
                 static_cast<double>(it->second.count) / 1e3;
  }
  const double plain_qps =
      static_cast<double>(plain.completed) / plain.wall_micros;
  const double traced_qps =
      static_cast<double>(traced.completed) / traced.wall_micros;
  report->Set("graph.publish_ms", publish_ms);
  report->Set("graph.frozen_bytes", static_cast<double>(s->frozen_bytes));
  report->Set("cache.hits", static_cast<double>(traced.cache.hits));
  report->Set("cache.misses", static_cast<double>(traced.cache.misses));
  report->Set("cache.evictions", static_cast<double>(traced.cache.evictions));
  report->Set("cache.hit_rate", traced.cache.HitRate());
  report->Set("serve.queue_wait_us_p50", Median(traced.queue_wait));
  report->Set("serve.publishes", static_cast<double>(traced.publishes));
  report->Set("serve.publish_ms", publish_ms);
  report->Set("serve.shed", static_cast<double>(traced.shed + sim.shed));
  report->Set("serve.completed", static_cast<double>(traced.completed));
  report->Set("serve.virtual_queue_wait_ms_p99",
              Percentile(sim.queue_wait, 0.99) / 1e3);
  report->Set("trace.overhead_frac", plain_qps / traced_qps - 1.0);
  report->Samples("traced_requests", traced.responses);
  report->Samples("spans", log.size());
}

}  // namespace perfbench
