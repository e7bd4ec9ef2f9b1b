#ifndef SVQA_TOOLS_BENCH_CHECK_BENCH_CHECK_H_
#define SVQA_TOOLS_BENCH_CHECK_BENCH_CHECK_H_

/// \file
/// bench_check — regression gate over the BENCH_*.json perf records.
///
/// The benches emit flat JSON arrays (bench_common.h JsonEmitter): one
/// object per benchmark record, string `name`/`cache_policy` fields and
/// numeric metrics. CI regenerates those records every release build;
/// this tool diffs the fresh file against the committed baseline and
/// fails the job when a deterministic metric drifts past its tolerance,
/// so a perf regression (or an unregenerated baseline) is a red build
/// rather than a silently rotting JSON file.
///
/// Two kinds of checks:
///
///   Baseline diff  — records are matched by (name, workers,
///     cache_policy). Every numeric metric present in both is compared
///     as relative deviation; metrics measured in host wall time
///     (wall_micros, throughput_qps, bytes_allocated) are skipped by
///     default because the committed baseline and the CI runner are
///     different machines (`--check-metric` re-enables one where it is
///     deterministic). A record may also declare its own host-dependent
///     metrics in a space-separated `host_metrics` string field (e.g. a
///     threaded virtual makespan that depends on thread interleaving);
///     those are skipped for that record only, and the declaration must
///     match the baseline's. Records missing from either side fail.
///
///   Require assertions — `--require "A:metric / B:metric >= 1.5"`
///     evaluates a ratio between two records of the *fresh* file. Both
///     sides run on the same machine in the same process, so this is
///     where wall-time claims and host-dependent metrics (threaded
///     speedups) are enforced. Operators: >=, <=, == (relative 1e-9).
///     Selectors are `name[@workers]:metric`; `@workers` disambiguates
///     sweeps that emit one record per worker count.
///
/// Exit codes follow svqa_lint: 0 clean, 1 check failures, 2 usage /
/// parse / IO errors. Like svqa_lint it is stdlib-only on purpose — the
/// gate must build anywhere the project builds.

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace bench_check {

/// One benchmark record: the flat JSON object, split into string fields
/// and numeric metrics.
struct Record {
  std::string name;
  std::map<std::string, std::string> strings;  // includes "name"
  std::map<std::string, double> metrics;

  double workers() const {
    auto it = metrics.find("workers");
    return it == metrics.end() ? 1.0 : it->second;
  }
  std::string cache_policy() const {
    auto it = strings.find("cache_policy");
    return it == strings.end() ? "" : it->second;
  }
};

/// Parses a JsonEmitter-style file: an array of flat objects whose
/// values are strings or numbers (no nesting — the emitter never writes
/// any). On failure returns false and sets *error with a position.
bool ParseRecords(const std::string& json, std::vector<Record>* out,
                  std::string* error);

/// Tolerances for the baseline diff.
struct CheckOptions {
  /// Maximum relative deviation |fresh - base| / max(|base|, 1) before
  /// a metric counts as a regression.
  double tolerance = 0.15;
  /// Per-metric overrides of `tolerance` (e.g. {"hit_rate", 0.02}).
  std::map<std::string, double> metric_tolerance;
  /// Metrics never diffed against the baseline: host-machine-dependent
  /// measurements. Assert these with `--require` ratios instead.
  std::set<std::string> skip_metrics = {"wall_micros", "throughput_qps",
                                        "bytes_allocated"};
};

/// Diffs fresh against baseline; returns one human-readable line per
/// failure (empty = clean).
std::vector<std::string> CompareRecords(const std::vector<Record>& baseline,
                                        const std::vector<Record>& fresh,
                                        const CheckOptions& options);

/// A parsed `--require` assertion: num/den selectors plus the bound.
struct RequireAssertion {
  std::string text;  // original, for messages
  std::string num_name, num_metric;
  std::string den_name, den_metric;
  double num_workers = -1;  // -1 = any (must be unique)
  double den_workers = -1;
  enum class Op { kGe, kLe, kEq } op = Op::kGe;
  double bound = 0;
};

/// Parses `"name[@workers]:metric / name[@workers]:metric <op> bound"`
/// (whitespace-separated: term / term op bound). Returns false and sets
/// *error on malformed input.
bool ParseRequire(const std::string& text, RequireAssertion* out,
                  std::string* error);

/// Evaluates assertions over the fresh records; returns failure lines.
std::vector<std::string> CheckRequires(
    const std::vector<Record>& fresh,
    const std::vector<RequireAssertion>& assertions);

/// Command-line entry point (what main() calls; tests call it too).
///
///   bench_check --baseline FILE --fresh FILE
///               [--tolerance F] [--metric-tolerance name=F ...]
///               [--check-metric name ...]   (un-skip a wall metric)
///               [--require "A:m / B:m >= X" ...]
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace bench_check

#endif  // SVQA_TOOLS_BENCH_CHECK_BENCH_CHECK_H_
