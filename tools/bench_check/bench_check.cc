#include "bench_check/bench_check.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace bench_check {
namespace {

// ---------------------------------------------------------------------------
// JSON parsing (flat array-of-objects subset, as JsonEmitter writes)
// ---------------------------------------------------------------------------

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::string error;

  bool Fail(const std::string& what) {
    error = what + " at byte " + std::to_string(i);
    return false;
  }
  void SkipWs() {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])) != 0)
      ++i;
  }
  bool Expect(char c) {
    SkipWs();
    if (i >= s.size() || s[i] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++i;
    return true;
  }
  bool ParseString(std::string* out) {
    SkipWs();
    if (i >= s.size() || s[i] != '"') return Fail("expected string");
    ++i;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      // The emitter never escapes, but tolerate \" anyway.
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out->push_back(s[i++]);
    }
    if (i >= s.size()) return Fail("unterminated string");
    ++i;
    return true;
  }
  bool ParseNumber(double* out) {
    SkipWs();
    const char* begin = s.c_str() + i;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    if (end == begin) return Fail("expected number");
    i += static_cast<std::size_t>(end - begin);
    return true;
  }
  bool ParseObject(Record* rec) {
    if (!Expect('{')) return false;
    SkipWs();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Expect(':')) return false;
      SkipWs();
      if (i < s.size() && s[i] == '"') {
        std::string value;
        if (!ParseString(&value)) return false;
        rec->strings[key] = value;
        if (key == "name") rec->name = std::move(value);
      } else {
        double value = 0;
        if (!ParseNumber(&value)) return false;
        rec->metrics[key] = value;
      }
      SkipWs();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      return Expect('}');
    }
  }
};

/// The identity a record is matched under across files.
std::string RecordKey(const Record& r) {
  std::ostringstream key;
  key << r.name << " (workers=" << r.workers()
      << ", policy=" << r.cache_policy() << ")";
  return key.str();
}

/// The record's declared host-dependent metrics (its space-separated
/// `host_metrics` string field).
std::set<std::string> HostMetrics(const Record& r) {
  std::set<std::string> out;
  auto it = r.strings.find("host_metrics");
  if (it == r.strings.end()) return out;
  std::istringstream in(it->second);
  for (std::string metric; in >> metric;) out.insert(metric);
  return out;
}

double ToleranceFor(const std::string& metric, const CheckOptions& options) {
  auto it = options.metric_tolerance.find(metric);
  return it == options.metric_tolerance.end() ? options.tolerance
                                              : it->second;
}

/// Relative deviation with a sane zero-baseline convention: counts near
/// zero compare absolutely (denominator clamps at 1).
double Deviation(double base, double fresh) {
  return std::fabs(fresh - base) / std::max(std::fabs(base), 1.0);
}

std::string Fmt(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// Resolves a `name[@workers]:metric` selector; nullptr + message on
/// no/ambiguous match.
const Record* Resolve(const std::vector<Record>& records,
                      const std::string& name, double workers,
                      const std::string& require_text,
                      std::vector<std::string>* failures) {
  const Record* found = nullptr;
  for (const Record& r : records) {
    if (r.name != name) continue;
    if (workers >= 0 && r.workers() != workers) continue;
    if (found != nullptr) {
      failures->push_back("require '" + require_text + "': selector '" +
                          name +
                          "' is ambiguous (add @workers to pick one "
                          "record of the sweep)");
      return nullptr;
    }
    found = &r;
  }
  if (found == nullptr) {
    failures->push_back("require '" + require_text + "': no record named '" +
                        name + "' in the fresh file");
  }
  return found;
}

bool MetricOf(const Record& r, const std::string& metric, double* out,
              const std::string& require_text,
              std::vector<std::string>* failures) {
  auto it = r.metrics.find(metric);
  if (it == r.metrics.end()) {
    failures->push_back("require '" + require_text + "': record '" + r.name +
                        "' has no metric '" + metric + "'");
    return false;
  }
  *out = it->second;
  return true;
}

/// Splits `name[@workers]:metric` on the *last* ':' (names contain '/'
/// but never ':').
bool SplitSelector(const std::string& term, std::string* name,
                   double* workers, std::string* metric) {
  std::size_t colon = term.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= term.size()) {
    return false;
  }
  *name = term.substr(0, colon);
  *metric = term.substr(colon + 1);
  *workers = -1;
  std::size_t at = name->rfind('@');
  if (at != std::string::npos) {
    char* end = nullptr;
    const std::string w = name->substr(at + 1);
    *workers = std::strtod(w.c_str(), &end);
    if (end == w.c_str() || *end != '\0') return false;
    *name = name->substr(0, at);
  }
  return !name->empty() && !metric->empty();
}

}  // namespace

bool ParseRecords(const std::string& json, std::vector<Record>* out,
                  std::string* error) {
  out->clear();
  Parser p{json, 0, ""};
  if (!p.Expect('[')) {
    *error = p.error;
    return false;
  }
  p.SkipWs();
  if (p.i < json.size() && json[p.i] == ']') {
    ++p.i;
    return true;
  }
  while (true) {
    Record rec;
    if (!p.ParseObject(&rec)) {
      *error = p.error;
      return false;
    }
    if (rec.name.empty()) {
      *error = "record " + std::to_string(out->size()) +
               " has no \"name\" field";
      return false;
    }
    out->push_back(std::move(rec));
    p.SkipWs();
    if (p.i < json.size() && json[p.i] == ',') {
      ++p.i;
      continue;
    }
    if (!p.Expect(']')) {
      *error = p.error;
      return false;
    }
    return true;
  }
}

std::vector<std::string> CompareRecords(const std::vector<Record>& baseline,
                                        const std::vector<Record>& fresh,
                                        const CheckOptions& options) {
  std::vector<std::string> failures;
  // Group by key, then compare i-th with i-th; the emitters write a
  // deterministic record order, so positional matching within a key is
  // exact.
  std::map<std::string, std::vector<const Record*>> base_by_key;
  std::map<std::string, std::vector<const Record*>> fresh_by_key;
  for (const Record& r : baseline) base_by_key[RecordKey(r)].push_back(&r);
  for (const Record& r : fresh) fresh_by_key[RecordKey(r)].push_back(&r);

  for (const auto& [key, base_recs] : base_by_key) {
    auto it = fresh_by_key.find(key);
    if (it == fresh_by_key.end()) {
      failures.push_back("baseline record '" + key +
                         "' missing from the fresh run");
      continue;
    }
    const auto& fresh_recs = it->second;
    if (fresh_recs.size() != base_recs.size()) {
      failures.push_back("record '" + key + "': baseline has " +
                         std::to_string(base_recs.size()) +
                         " occurrence(s), fresh has " +
                         std::to_string(fresh_recs.size()));
      continue;
    }
    for (std::size_t i = 0; i < base_recs.size(); ++i) {
      // A record's own host_metrics declaration exempts those metrics;
      // the declaration itself must match the baseline's, so moving a
      // metric out of the deterministic class takes a regenerated,
      // reviewed baseline.
      const std::set<std::string> host = HostMetrics(*base_recs[i]);
      if (host != HostMetrics(*fresh_recs[i])) {
        failures.push_back("record '" + key +
                           "': declared host_metrics differ from the "
                           "baseline (regenerate and commit the BENCH "
                           "file)");
      }
      for (const auto& [metric, base_value] : base_recs[i]->metrics) {
        if (options.skip_metrics.count(metric) != 0) continue;
        if (host.count(metric) != 0) continue;
        auto mit = fresh_recs[i]->metrics.find(metric);
        if (mit == fresh_recs[i]->metrics.end()) {
          failures.push_back("record '" + key + "': metric '" + metric +
                             "' missing from the fresh run");
          continue;
        }
        const double tol = ToleranceFor(metric, options);
        const double dev = Deviation(base_value, mit->second);
        if (dev > tol) {
          failures.push_back(
              "record '" + key + "': " + metric + " drifted " +
              Fmt(dev * 100.0) + "% (baseline " + Fmt(base_value) +
              ", fresh " + Fmt(mit->second) + ", tolerance " +
              Fmt(tol * 100.0) + "%)");
        }
      }
    }
  }
  // A fresh record absent from the baseline means the committed file
  // was not regenerated after a bench change: also a failure.
  for (const auto& [key, recs] : fresh_by_key) {
    (void)recs;
    if (base_by_key.count(key) == 0) {
      failures.push_back("fresh record '" + key +
                         "' not in the baseline (regenerate and commit "
                         "the BENCH file)");
    }
  }
  return failures;
}

bool ParseRequire(const std::string& text, RequireAssertion* out,
                  std::string* error) {
  std::istringstream in(text);
  std::string num, slash, den, op, bound;
  if (!(in >> num >> slash >> den >> op >> bound) || slash != "/") {
    *error = "expected \"name[@w]:metric / name[@w]:metric <op> bound\"";
    return false;
  }
  std::string trailing;
  if (in >> trailing) {
    *error = "trailing tokens after the bound";
    return false;
  }
  out->text = text;
  if (!SplitSelector(num, &out->num_name, &out->num_workers,
                     &out->num_metric) ||
      !SplitSelector(den, &out->den_name, &out->den_workers,
                     &out->den_metric)) {
    *error = "malformed selector (want name[@workers]:metric)";
    return false;
  }
  if (op == ">=") {
    out->op = RequireAssertion::Op::kGe;
  } else if (op == "<=") {
    out->op = RequireAssertion::Op::kLe;
  } else if (op == "==") {
    out->op = RequireAssertion::Op::kEq;
  } else {
    *error = "unknown operator '" + op + "' (want >=, <= or ==)";
    return false;
  }
  char* end = nullptr;
  out->bound = std::strtod(bound.c_str(), &end);
  if (end == bound.c_str() || *end != '\0') {
    *error = "malformed bound '" + bound + "'";
    return false;
  }
  return true;
}

std::vector<std::string> CheckRequires(
    const std::vector<Record>& fresh,
    const std::vector<RequireAssertion>& assertions) {
  std::vector<std::string> failures;
  for (const RequireAssertion& a : assertions) {
    const Record* num =
        Resolve(fresh, a.num_name, a.num_workers, a.text, &failures);
    const Record* den =
        Resolve(fresh, a.den_name, a.den_workers, a.text, &failures);
    if (num == nullptr || den == nullptr) continue;
    double nv = 0, dv = 0;
    if (!MetricOf(*num, a.num_metric, &nv, a.text, &failures) ||
        !MetricOf(*den, a.den_metric, &dv, a.text, &failures)) {
      continue;
    }
    if (dv == 0) {
      failures.push_back("require '" + a.text + "': denominator is zero");
      continue;
    }
    const double ratio = nv / dv;
    bool ok = false;
    switch (a.op) {
      case RequireAssertion::Op::kGe:
        ok = ratio >= a.bound;
        break;
      case RequireAssertion::Op::kLe:
        ok = ratio <= a.bound;
        break;
      case RequireAssertion::Op::kEq:
        ok = std::fabs(ratio - a.bound) <=
             1e-9 * std::max(std::fabs(a.bound), 1.0);
        break;
    }
    if (!ok) {
      failures.push_back("require '" + a.text + "' failed: ratio is " +
                         Fmt(ratio) + " (" + Fmt(nv) + " / " + Fmt(dv) +
                         ")");
    }
  }
  return failures;
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  std::string baseline_path;
  std::string fresh_path;
  CheckOptions options;
  std::vector<RequireAssertion> reqs;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      out << "usage: bench_check --baseline FILE --fresh FILE\n"
             "                   [--tolerance F] [--metric-tolerance "
             "name=F ...]\n"
             "                   [--check-metric name ...]\n"
             "                   [--require \"A:m / B:m >= X\" ...]\n"
             "Diffs a fresh BENCH_*.json against the committed baseline\n"
             "and evaluates ratio assertions over the fresh records.\n"
             "Exit: 0 clean, 1 check failures, 2 usage/parse error.\n";
      return 0;
    }
    auto next = [&](std::string* value) {
      if (i + 1 >= args.size()) {
        err << "bench_check: " << a << " requires an argument\n";
        return false;
      }
      *value = args[++i];
      return true;
    };
    std::string value;
    if (a == "--baseline") {
      if (!next(&baseline_path)) return 2;
    } else if (a == "--fresh") {
      if (!next(&fresh_path)) return 2;
    } else if (a == "--tolerance") {
      if (!next(&value)) return 2;
      options.tolerance = std::atof(value.c_str());
    } else if (a == "--metric-tolerance") {
      if (!next(&value)) return 2;
      std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        err << "bench_check: --metric-tolerance wants name=F, got '"
            << value << "'\n";
        return 2;
      }
      options.metric_tolerance[value.substr(0, eq)] =
          std::atof(value.c_str() + eq + 1);
    } else if (a == "--check-metric") {
      if (!next(&value)) return 2;
      options.skip_metrics.erase(value);
    } else if (a == "--require") {
      if (!next(&value)) return 2;
      RequireAssertion req;
      std::string error;
      if (!ParseRequire(value, &req, &error)) {
        err << "bench_check: bad --require '" << value << "': " << error
            << "\n";
        return 2;
      }
      reqs.push_back(std::move(req));
    } else {
      err << "bench_check: unknown argument '" << a << "'\n";
      return 2;
    }
  }
  if (fresh_path.empty()) {
    err << "bench_check: --fresh is required\n";
    return 2;
  }
  if (baseline_path.empty() && reqs.empty()) {
    err << "bench_check: nothing to do (want --baseline and/or "
           "--require)\n";
    return 2;
  }

  auto load = [&err](const std::string& path, std::vector<Record>* records) {
    std::ifstream in(path);
    if (!in) {
      err << "bench_check: cannot read '" << path << "'\n";
      return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!ParseRecords(buf.str(), records, &error)) {
      err << "bench_check: " << path << ": " << error << "\n";
      return false;
    }
    return true;
  };

  std::vector<Record> fresh;
  if (!load(fresh_path, &fresh)) return 2;

  std::vector<std::string> failures;
  if (!baseline_path.empty()) {
    std::vector<Record> baseline;
    if (!load(baseline_path, &baseline)) return 2;
    failures = CompareRecords(baseline, fresh, options);
  }
  std::vector<std::string> require_failures =
      CheckRequires(fresh, reqs);
  failures.insert(failures.end(), require_failures.begin(),
                  require_failures.end());

  for (const std::string& f : failures) out << "bench_check: " << f << "\n";
  if (failures.empty()) {
    out << "bench_check: clean (" << fresh.size() << " records";
    if (!reqs.empty()) {
      out << ", " << reqs.size() << " assertion(s)";
    }
    out << ")\n";
    return 0;
  }
  out << "bench_check: " << failures.size() << " failure(s)\n";
  return 1;
}

}  // namespace bench_check
