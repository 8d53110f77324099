// Shared pieces of the benchmark runner: the clock, one quantile
// convention, the benchmark-owned span recorder, and the result that
// main.cc prints as JSON for run.py.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock SleepUntilNs uses).
std::int64_t NowNs();
/// Sleeps until the monotonic clock reads `ns` (returns at once if past).
void SleepUntilNs(std::int64_t ns);

// --- Quantiles: every quantile in the benchmark is a fraction in [0, 1]. --

/// Linear interpolation between order statistics (numpy's default).
/// Sorts `v` in place; 0 for an empty sample.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

/// The one reader of server histograms: quantile `q` in [0, 1] of a
/// power-of-two bucketed snapshot (obs::HistogramSnapshot stores percent,
/// which is why this wrapper exists and nothing else calls Percentile).
double HistQuantile(const dlner::obs::HistogramSnapshot& h, double q);
double HistMean(const dlner::obs::HistogramSnapshot& h);

// --- Spans ---------------------------------------------------------------

/// Benchmark-owned spans, kept in a preallocated buffer and written once at
/// the end. Every span has a layer, a parent (0 = root) and the request id
/// it belongs to (0 = none). Disabled recorders cost one relaxed load.
class Spans {
 public:
  struct Span {
    const char* layer = nullptr;
    const char* name = nullptr;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t req = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int tid = 0;
  };

  static Spans& Get();

  /// The span buffer is allocated on the first Enable(true), so untraced
  /// runs never carry it in their peak RSS.
  void Enable(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a completed span.
  void Record(const char* layer, const char* name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t parent, std::uint64_t req);
  /// Reserves an id for a span whose children finish before it does.
  std::uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  /// Records a span under an id from NewId().
  void RecordWithId(std::uint64_t id, const char* layer, const char* name,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t parent, std::uint64_t req);

  std::uint64_t dropped() const { return dropped_.load(); }
  std::size_t size() const;
  const Span& at(std::size_t i) const { return buf_[i]; }

  /// Self time of every recorded span: its duration minus the part of it
  /// covered by its children's intervals. Indexed like at().
  std::vector<std::int64_t> SelfTimesNs() const;

  /// Chrome trace_event JSON (the format tools/check_trace.py validates).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr std::size_t kCapacity = 1u << 17;

  Spans();

  std::atomic<bool> enabled_{false};
  std::unique_ptr<Span[]> buf_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span on the calling thread; nests under the thread's open span.
class Scope {
 public:
  Scope(const char* layer, const char* name, std::uint64_t req = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* layer_;
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t req_ = 0;
  std::int64_t start_ = 0;
};

// --- Result --------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  int n = 1;  // samples the value summarizes
  double q1 = 0.0, q3 = 0.0;
};

struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;  // counts and host data, not metrics
  std::map<std::string, std::string> host;
  std::vector<std::string> failures;  // any entry makes correct = false
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit,
           int n = 1);
  /// Median of `samples`, with its quartiles and count.
  void SetMedian(const std::string& name, std::vector<double> samples,
                 const std::string& unit);
  void Fail(const std::string& why);
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  std::string Json() const;
};

/// VmHWM / VmRSS (MiB) and Threads of a process from /proc/<pid>/status.
struct ProcStatus {
  double hwm_mb = 0.0;
  double rss_mb = 0.0;
  int threads = 0;
};
ProcStatus ReadProcStatus(int pid);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
