// The SVQA repository benchmark.
//
//   perfbench --workload ingest|ask_hot|serve_mixed --seed N --seconds S
//             --trace 0|1 [--out_dir DIR]
//
// Prints one metadata line and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones
// (the traced run also writes DIR/<workload>.trace.json). Exit code 0
// when every correctness and determinism check passed, 1 when one
// failed, 2 on bad usage or a refused configuration. See README.md.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>

#include "workloads.h"

namespace perfbench {

svqa::data::MvqaDataset MakeDataset(uint64_t seed) {
  svqa::data::MvqaOptions options;
  options.world.seed = seed;
  options.seed = seed;
  options.num_color = kColorQuestions;
  return svqa::data::MvqaGenerator(options).Generate();
}

std::vector<std::size_t> Shuffled(std::size_t n, uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed keys against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"virtual_mean_ms", "virtual_ms"},
    {"virtual_p50_ms", "virtual_ms"},
    {"virtual_p99_ms", "virtual_ms"},
    {"answer_accuracy", "share"},
    {"ok_frac", "share"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"vision.fit_bias_ms", "ms"},
    {"vision.sgg_us_per_image", "us"},
    {"vision.relations_per_image", "count"},
    {"aggregator.merge_ms", "ms"},
    {"aggregator.merged_vertices", "count"},
    {"aggregator.merged_edges", "count"},
    {"graph.publish_ms", "ms"},
    {"graph.frozen_bytes", "bytes"},
    {"storage.persist_ms", "ms"},
    {"storage.wal_bytes", "bytes"},
    {"storage.snapshot_bytes", "bytes"},
    {"query.parse_us_p50", "us"},
    {"query.parse_us_p99", "us"},
    {"query.parse_token_ops", "count"},
    {"query.parse_transition_ops", "count"},
    {"query.quadruples_per_question", "count"},
    {"exec.execute_us_p50", "us"},
    {"exec.execute_us_p99", "us"},
    {"exec.vertex_compare_ops", "count"},
    {"exec.edge_traverse_ops", "count"},
    {"exec.levenshtein_ops", "count"},
    {"exec.embedding_sim_ops", "count"},
    {"exec.alloc_bytes_per_question", "bytes"},
    {"exec.degraded_frac", "share"},
    {"cache.hit_rate", "share"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"cache.probe_ops", "count"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.publish_ms", "ms"},
    {"serve.publishes", "count"},
    {"serve.shed", "count"},
    {"serve.completed", "count"},
    {"serve.virtual_queue_wait_ms_p99", "virtual_ms"},
    {"ingest.unattributed_frac", "share"},
    {"ask.unattributed_frac", "share"},
    {"trace.overhead_frac", "share"},
};

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Report*);
  int threads;
};

constexpr Workload kWorkloads[] = {
    {"ingest", RunIngest, kIngestThreads},
    {"ask_hot", RunAskHot, kAskHotThreads},
    {"serve_mixed", RunServeMixed, kServeThreads},
};

/// CPUs this process may run on, as `nproc` prints it.
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest|ask_hot|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--out_dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  const Workload* workload = nullptr;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--out_dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) "
                 "are required");
  }

  // Guards: timings from an unoptimized build, or from more threads than
  // the host has cores, measure the wrong thing.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; use Release\n",
                 build_type.c_str());
    return 2;
  }
  const int nproc = Nproc();
  if (workload->threads > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s runs %d threads but nproc is %d\n",
                 workload->name, workload->threads, nproc);
    return 2;
  }

  Report report;
  workload->run(config, &report);
  if (!config.trace) {
    const double attempted = static_cast<double>(report.attempted());
    report.Set("ok_frac",
               attempted == 0
                   ? 0
                   : (attempted - static_cast<double>(report.failed())) /
                         attempted);
    report.Set("peak_rss_mb", PeakRssMb());
  }
  if (report.attempted() == 0) report.Fail("nothing was attempted");

  for (const std::string& why : report.failures()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  std::printf(
      "perfbench-meta {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %d, \"threads\": %d, "
      "\"build_type\": \"%s\", \"samples\": {",
      workload->name, static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, nproc, workload->threads,
      build_type.c_str());
  const char* sep = "";
  for (const auto& [name, n] : report.samples()) {
    std::printf("%s\"%s\": %zu", sep, name.c_str(), n);
    sep = ", ";
  }
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  sep = "";
  auto print = [&](const MetricDef& m) {
    auto it = report.metrics().find(m.name);
    const double value = it == report.metrics().end() ? 0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name,
                value, m.unit);
    sep = ", ";
  };
  if (config.trace) {
    for (const MetricDef& m : kPerLayer) print(m);
  } else {
    for (const MetricDef& m : kEndToEnd) print(m);
  }
  std::printf("}}\n");
  return report.correct() ? 0 : 1;
}
