#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

namespace perfbench {

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> WindowRates(const std::vector<double>& at,
                                const std::vector<double>& busy) {
  constexpr double kWindowMicros = 1e6;
  std::vector<double> rates;
  if (at.empty()) return rates;
  double window_end = at.front() + kWindowMicros;
  double count = 0, busy_micros = 0;
  for (std::size_t i = 0; i < at.size(); ++i) {
    while (at[i] >= window_end) {
      if (count > 0) rates.push_back(count / (busy_micros / 1e6));
      count = 0;
      busy_micros = 0;
      window_end += kWindowMicros;
    }
    ++count;
    busy_micros += busy[i];
  }
  // A run shorter than one window is one window.
  if (rates.empty()) rates.push_back(count / (busy_micros / 1e6));
  return rates;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void Report::Fail(const std::string& why) {
  // Keep the first few reasons; a systematic defect repeats thousands
  // of times and one line of it says enough.
  if (failures_.size() < 20) failures_.push_back(why);
  else if (failures_.size() == 20) failures_.push_back("...");
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %u, \"parent\": %u}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.tid), s.start - origin_,
                 s.end - s.start, s.id, s.parent);
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

std::map<std::string, svqa_trace::NameStats> AnalyzeTrace(
    const std::string& path, Report* report) {
  std::map<std::string, svqa_trace::NameStats> by_name;
  // The CLI entry point first: the export must load in `svqa_trace
  // aggregate` exactly as a user would run it.
  std::ostringstream out, err;
  if (svqa_trace::RunCli({"aggregate", path}, out, err) != 0) {
    report->Fail("svqa_trace aggregate rejected " + path + ": " + err.str());
    return by_name;
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  std::vector<svqa_trace::TraceEvent> events;
  std::string error;
  if (!svqa_trace::ParseTrace(content.str(), &events, &error)) {
    report->Fail("trace export does not parse: " + error);
    return by_name;
  }
  for (svqa_trace::NameStats& s : svqa_trace::Aggregate(events)) {
    std::string name = s.name;
    by_name.emplace(std::move(name), std::move(s));
  }
  return by_name;
}

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void SetAllocCounting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

uint64_t AllocatedBytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// Replaceable global allocation functions (this is the binary's only
// translation unit that defines them).
void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::CountedAlloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size,
                                        static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size,
                                        static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
