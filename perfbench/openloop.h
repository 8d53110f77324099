// Open-loop load: seeded arrival schedules, the per-phase tally every
// workload reports, and the saturation search on a fixed geometric grid.
//
// Every request is timed from the moment it was due, not from when the
// generator got round to sending it, so a stall charges its wait to every
// request queued behind it. How late the generator itself ran is reported
// separately (loadgen.late_p99_us).
#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "tensor/rng.h"

namespace perfbench {

/// Latency objective of max_rps_at_slo: p99 from the due time.
inline constexpr double kSloUs = 25'000.0;
/// Ratio between adjacent rates of the saturation grid (5% steps).
inline constexpr double kGridRatio = 1.05;
/// Coarse search probes last probe_s / kCoarseDivisor.
inline constexpr double kCoarseDivisor = 8.0;

/// Due offsets (ns from phase start) of exactly round(rate * seconds)
/// Poisson arrivals, rescaled so the last one falls inside the window.
std::vector<std::int64_t> PoissonSchedule(double rate, double seconds,
                                          dlner::Rng* rng);

struct PhaseTally {
  std::vector<double> lat_us;   // answered-correctly requests, from due
  std::vector<double> late_us;  // generator lateness of each send
  std::int64_t attempted = 0;   // requests due in the phase
  std::int64_t ok = 0;
  std::int64_t refused = 0;     // 429 / 503
  std::int64_t failed = 0;      // any other error code
  std::int64_t wrong = 0;       // answered, but not the expected output
  std::int64_t unsent = 0;      // never sent (connection lost)
  std::int64_t unanswered = 0;  // no answer by the drain timeout
  /// Requests due inside the window but still unanswered when it closed.
  std::int64_t backlog_at_end = 0;
  double span_s = 0.0;          // first due .. last answer

  std::int64_t bad() const {
    return refused + failed + wrong + unsent + unanswered;
  }
  /// Answered-correctly requests per second over first due .. last answer.
  double achieved_rps() const {
    return span_s > 0.0 ? static_cast<double>(ok) / span_s : 0.0;
  }
  void Merge(const PhaseTally& other);
};

/// Median of the p99s of the sample's four consecutive quarters: a stall
/// of the host inflates one quarter, a saturated program all four.
double RobustP99(const std::vector<double>& lat_us);

/// RobustP99 <= kSloUs, nothing failed, and no backlog beyond what the
/// objective allows to be in flight when the window closes.
bool MeetsSlo(const PhaseTally& t, double rate);

/// Runs one phase at `rate` requests/s for `seconds`.
using PhaseFn = std::function<PhaseTally(double rate, double seconds)>;

struct SearchResult {
  double rps = 0.0;      // achieved rate at the highest passing rung
  double rung_rps = 0.0; // that rung's nominal rate
  int probes = 0;
};

/// Highest rate of the grid base * kGridRatio^k (k >= 0) at which a
/// `probe_s` phase meets the objective. Probes of probe_s / kCoarseDivisor
/// first bracket it from `start_rate`'s rung (gallop, then bisect, within
/// a third of `budget_s`); full-length probes then gallop and bisect from
/// the rung they found. Once a full probe has passed, the search stops
/// when `budget_s` is spent.
SearchResult SearchMaxRate(const PhaseFn& run, double base, double start_rate,
                           double probe_s, double budget_s);

/// In-process open loop with one caller: each job starts when it is due
/// or when the previous one returns, whichever is later. `job(i)` returns
/// false when its output is wrong.
PhaseTally RunInProcess(const std::vector<std::int64_t>& due_ns,
                        const std::function<bool(std::size_t)>& job,
                        const char* span_layer, const char* span_name);

/// Sets lat_p50_us.<tag>, the median of the p50s of the phase's segments
/// (see main.cc RunFixed). The p90 and p99 go to info only: on a shared
/// virtual host they follow the host's scheduling stalls more than the
/// program and were not steady enough between runs to carry a bound.
void ReportLatency(Result* r, const std::vector<PhaseTally>& segments,
                   const std::string& tag);

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
