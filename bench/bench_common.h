#ifndef SVQA_BENCH_BENCH_COMMON_H_
#define SVQA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace svqa::bench {

/// Prints a section banner for an experiment table/figure.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints a horizontal rule.
inline void Rule() {
  std::printf(
      "------------------------------------------------------------------"
      "----\n");
}

/// Percentage formatting.
inline double Pct(double fraction) { return fraction * 100.0; }

/// \brief One machine-readable benchmark record: the fixed fields every
/// record carries plus free-form numeric extras.
struct JsonRecord {
  std::string name;
  std::size_t workers = 1;
  std::string cache_policy;  // "lfu" / "lru" / "none"
  double total_micros = 0;   // virtual makespan
  double wall_micros = 0;    // measured host time
  double hit_rate = 0;       // shared-cache hit rate in [0, 1]
  /// Space-separated metric names whose values depend on the host
  /// (thread interleaving, timing); bench_check skips them in the
  /// baseline diff. Empty (and not written) when every virtual metric
  /// of the record is deterministic.
  std::string host_metrics;
  std::vector<std::pair<std::string, double>> extras;

  JsonRecord& Extra(std::string key, double value) {
    extras.emplace_back(std::move(key), value);
    return *this;
  }
};

/// \brief Collects JsonRecords and writes them as a JSON array, so the
/// perf trajectory (BENCH_*.json) can be tracked across PRs and uploaded
/// as a CI artifact. Records are flat string/number objects — no
/// escaping is attempted beyond what benchmark names need (none).
class JsonEmitter {
 public:
  /// \param path output file; empty disables emission entirely.
  explicit JsonEmitter(std::string path) : path_(std::move(path)) {}

  void Add(JsonRecord record) {
    if (!path_.empty()) records_.push_back(std::move(record));
  }

  /// Writes the collected records. Returns false on I/O failure.
  bool Flush() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"workers\": %zu, "
                   "\"cache_policy\": \"%s\", \"total_micros\": %.1f, "
                   "\"wall_micros\": %.1f, \"hit_rate\": %.4f",
                   r.name.c_str(), r.workers, r.cache_policy.c_str(),
                   r.total_micros, r.wall_micros, r.hit_rate);
      if (!r.host_metrics.empty()) {
        std::fprintf(f, ", \"host_metrics\": \"%s\"",
                     r.host_metrics.c_str());
      }
      for (const auto& [key, value] : r.extras) {
        std::fprintf(f, ", \"%s\": %.1f", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("\nwrote %zu records to %s\n", records_.size(),
                path_.c_str());
    return true;
  }

 private:
  std::string path_;
  std::vector<JsonRecord> records_;
};

/// Tiny argv helper: returns the value following `flag`, or `fallback`.
inline std::string FlagValue(int argc, char** argv, const std::string& flag,
                             std::string fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return fallback;
}

}  // namespace svqa::bench

// ---------------------------------------------------------------------------
// Heap allocation accounting (opt-in: define SVQA_BENCH_COUNT_ALLOCS)
// ---------------------------------------------------------------------------
//
// Replaces the global allocation functions with counting wrappers so a
// bench can report bytes/calls allocated across a measured region
// (`AllocsNow()` before and after, subtract). Replaceable allocation
// functions must not be `inline`, so this block may be compiled into at
// most one translation unit per binary — every bench executable is a
// single .cc, and bench/CMakeLists.txt sets the macro per target.
#ifdef SVQA_BENCH_COUNT_ALLOCS

#include <atomic>
#include <cstdlib>
#include <new>

namespace svqa::bench {

/// Monotonic totals since process start.
struct AllocSnapshot {
  unsigned long long bytes = 0;
  unsigned long long count = 0;
};

namespace internal {
inline std::atomic<unsigned long long> g_alloc_bytes{0};
inline std::atomic<unsigned long long> g_alloc_count{0};

inline void* CountedAlloc(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

inline void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace internal

inline AllocSnapshot AllocsNow() {
  return {internal::g_alloc_bytes.load(std::memory_order_relaxed),
          internal::g_alloc_count.load(std::memory_order_relaxed)};
}

/// Allocation traffic between `start` and now.
inline AllocSnapshot AllocsSince(const AllocSnapshot& start) {
  const AllocSnapshot now = AllocsNow();
  return {now.bytes - start.bytes, now.count - start.count};
}

}  // namespace svqa::bench

void* operator new(std::size_t size) {
  return svqa::bench::internal::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return svqa::bench::internal::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return svqa::bench::internal::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return svqa::bench::internal::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

#endif  // SVQA_BENCH_COUNT_ALLOCS

#endif  // SVQA_BENCH_BENCH_COMMON_H_
