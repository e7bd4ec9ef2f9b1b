#ifndef SVQA_PERFBENCH_HARNESS_H_
#define SVQA_PERFBENCH_HARNESS_H_

// Shared plumbing of the repository benchmark: host timing, percentiles,
// the metric report, the in-memory span log with its Chrome-trace
// export, and heap-allocation counting. Nothing here calls into SVQA.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "svqa_trace/svqa_trace.h"

namespace perfbench {

/// Host steady-clock time in microseconds.
double NowMicros();

/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);
/// Median of a non-empty sample (nearest rank).
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// On `ingest` and `ask_hot`, `throughput_per_s` is the rate held by the
/// slowest tenth of a run's windows (on `ingest`, of its calls). On a
/// shared cloud host, the load other tenants put on the machine moves
/// the program's speed by a third or more, in phases of seconds. Most
/// runs spend some time in a slow phase and not every run reaches a fast
/// one, so a run's slow tail repeats where its median does not.
inline constexpr double kSlowShare = 0.1;

/// Per one-second window of a run, the rate at which units completed:
/// the window's unit count over the summed `busy[i]` of its units.
/// `at[i]` (host micros, non-decreasing) is when unit i completed.
/// Windows start at the first completion; the last, partial window is
/// dropped unless it is the only one.
std::vector<double> WindowRates(const std::vector<double>& at,
                                const std::vector<double>& busy);

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// What one run of a workload was told to do.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome-trace export.
  std::string out_dir = ".";
};

/// \brief Everything a workload reports: the attempt/failure counts, the
/// metrics by name, and the reasons for any failed check.
class Report {
 public:
  void Set(const std::string& name, double value) { metrics_[name] = value; }
  /// Records one attempted operation; `ok == false` counts it failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a failed correctness or determinism check; the run is then
  /// not correct.
  void Fail(const std::string& why);
  /// Records one sample count, printed with the run metadata.
  void Samples(const std::string& name, std::size_t n) { samples_[name] = n; }

  bool correct() const { return failures_.empty() && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, std::size_t>& samples() const {
    return samples_;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::size_t> samples_;
  std::vector<std::string> failures_;
};

/// \brief Runs `make` `times` times, each a complete set-up from scratch,
/// and returns the last result; `*median_s` gets the median wall time.
/// The previous result is destroyed before the next set-up starts.
template <typename T, typename Make>
std::unique_ptr<T> TimedSetups(int times, Make make, double* median_s) {
  std::unique_ptr<T> state;
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    state.reset();
    const double start = NowMicros();
    state = make();
    seconds.push_back((NowMicros() - start) / 1e6);
  }
  *median_s = Median(seconds);
  return state;
}

/// \brief The comparable part of an answer: what a user reads.
struct AnswerKey {
  std::string text;
  std::vector<std::string> entities;

  static AnswerKey Of(const svqa::exec::Answer& a) {
    return {a.text, a.entities};
  }
  bool operator==(const AnswerKey& o) const {
    return text == o.text && entities == o.entities;
  }
};

/// \brief In-memory span log. Each span carries a request id (`tid`),
/// an id unique within that request and its parent's id (0 = root).
/// Spans are kept in memory and written once, at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(double origin_micros) : origin_(origin_micros) {}

  void Add(uint64_t tid, uint32_t id, uint32_t parent, const char* name,
           double start_micros, double end_micros) {
    spans_.push_back({tid, id, parent, name, start_micros, end_micros});
  }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  std::size_t size() const { return spans_.size(); }

  /// Writes Chrome trace_event JSON (the format `Tracer::ToJson` emits
  /// and `svqa_trace` reads), times relative to the log's origin.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Rec {
    uint64_t tid;
    uint32_t id;
    uint32_t parent;
    const char* name;
    double start;
    double end;
  };
  double origin_;
  std::vector<Rec> spans_;
};

/// \brief Loads an exported trace through the repository's analyzer
/// (`svqa_trace aggregate`) and returns its per-span-name statistics.
/// Fails the report when the file does not load.
std::map<std::string, svqa_trace::NameStats> AnalyzeTrace(
    const std::string& path, Report* report);

/// Heap allocation counting (operator new is replaced in harness.cc).
/// Counting is off until enabled; the counter is process-wide.
void SetAllocCounting(bool on);
uint64_t AllocatedBytes();

}  // namespace perfbench

#endif  // SVQA_PERFBENCH_HARNESS_H_
