#include "perfbench/openloop.h"

#include <cmath>
#include <map>

namespace perfbench {

std::vector<std::int64_t> PoissonSchedule(double rate, double seconds,
                                          dlner::Rng* rng) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(rate * seconds)));
  std::vector<double> cum(n + 1);
  double t = 0.0;
  for (std::size_t i = 0; i <= n; ++i) {
    t += -std::log(1.0 - rng->Uniform());
    cum[i] = t;
  }
  std::vector<std::int64_t> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = static_cast<std::int64_t>(cum[i] / cum[n] * seconds * 1e9);
  }
  return due;
}

void PhaseTally::Merge(const PhaseTally& o) {
  lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
  late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
  attempted += o.attempted;
  ok += o.ok;
  refused += o.refused;
  failed += o.failed;
  wrong += o.wrong;
  unsent += o.unsent;
  unanswered += o.unanswered;
  backlog_at_end += o.backlog_at_end;
  span_s += o.span_s;
}

double RobustP99(const std::vector<double>& lat_us) {
  std::vector<double> p99;
  const std::size_t n = lat_us.size();
  for (std::size_t q = 0; q < 4; ++q) {
    std::vector<double> part(lat_us.begin() + static_cast<std::ptrdiff_t>(n * q / 4),
                             lat_us.begin() + static_cast<std::ptrdiff_t>(n * (q + 1) / 4));
    p99.push_back(Quantile(&part, 0.99));
  }
  return Median(p99);
}

bool MeetsSlo(const PhaseTally& t, double rate) {
  if (t.ok == 0 || t.bad() > 0) return false;
  const double in_flight = std::ceil(rate * kSloUs / 1e6) + 1.0;
  return RobustP99(t.lat_us) <= kSloUs &&
         static_cast<double>(t.backlog_at_end) <= in_flight;
}

SearchResult SearchMaxRate(const PhaseFn& run, double base, double start_rate,
                           double probe_s, double budget_s) {
  const std::int64_t t0 = NowNs();
  const auto rate_of = [base](int k) { return base * std::pow(kGridRatio, k); };
  const auto spent = [&] { return static_cast<double>(NowNs() - t0) / 1e9; };
  SearchResult res;
  std::map<int, PhaseTally> passed;  // full-length probes that passed
  const auto probe = [&](int k, bool full) {
    ++res.probes;
    PhaseTally t = run(rate_of(k), full ? probe_s : probe_s / kCoarseDivisor);
    if (!MeetsSlo(t, rate_of(k))) return false;
    if (full) passed[k] = std::move(t);
    return true;
  };
  // Gallops from rung k and bisects; returns the highest rung seen passing
  // (-1 if none). Once some rung has passed, `out_of_time()` counts as a
  // fail, so the result is always a rung seen passing; until then it keeps
  // stepping down.
  const auto search = [&](int k, bool full, const auto& out_of_time) {
    int lo = -1, hi = -1;
    const auto try_rung = [&](int r) {
      return !(lo >= 0 && out_of_time()) && probe(r, full);
    };
    if (try_rung(k)) {
      lo = k;
      for (int step = 1;; step *= 2) {
        if (!try_rung(lo + step)) {
          hi = lo + step;
          break;
        }
        lo += step;
      }
    } else {
      hi = k;
      for (int step = 1; hi > 0; step *= 2) {
        const int r = std::max(0, hi - step);
        if (try_rung(r)) {
          lo = r;
          break;
        }
        hi = r;
      }
    }
    while (lo >= 0 && hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (try_rung(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  // Short probes bracket the knee cheaply, wherever the host's speed has
  // put it; full-length probes then settle it from there, so the full
  // probes the answer rests on are spent next to the knee.
  const int k0 = std::max(
      0, static_cast<int>(std::floor(std::log(start_rate / base) /
                                     std::log(kGridRatio) + 1e-9)));
  const int coarse = search(k0, false, [&] {
    return spent() > budget_s / 3;
  });
  const int lo = search(std::max(coarse, 0), true, [&] {
    return spent() + probe_s > budget_s;
  });
  if (lo >= 0) {
    res.rung_rps = rate_of(lo);
    res.rps = passed[lo].achieved_rps();
  }
  return res;
}

PhaseTally RunInProcess(const std::vector<std::int64_t>& due_ns,
                        const std::function<bool(std::size_t)>& job,
                        const char* span_layer, const char* span_name) {
  PhaseTally t;
  const std::int64_t start = NowNs() + 1'000'000;
  const std::int64_t window_end =
      start + (due_ns.empty() ? 0 : due_ns.back()) + 1;
  std::int64_t last_end = 0;
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    const std::int64_t due = start + due_ns[i];
    std::int64_t begin = NowNs();
    if (begin < due) {
      // Spin rather than sleep: the caller is also the worker, and waking a
      // halted virtual CPU costs a host-dependent millisecond or more that
      // would land in every job's latency.
      while ((begin = NowNs()) < due) {
      }
      t.late_us.push_back(static_cast<double>(begin - due) / 1e3);
    }
    const bool ok = job(i);
    last_end = NowNs();
    Spans::Get().Record(span_layer, span_name, due, last_end, 0, i + 1);
    ++t.attempted;
    if (ok) {
      ++t.ok;
      t.lat_us.push_back(static_cast<double>(last_end - due) / 1e3);
    } else {
      ++t.wrong;
    }
    if (last_end > window_end) ++t.backlog_at_end;
  }
  if (!due_ns.empty()) {
    t.span_s = static_cast<double>(last_end - (start + due_ns[0])) / 1e9;
  }
  return t;
}

void ReportLatency(Result* r, const std::vector<PhaseTally>& segments,
                   const std::string& tag) {
  std::vector<double> p50, p90, p99;
  for (const PhaseTally& t : segments) {
    std::vector<double> lat = t.lat_us;
    p50.push_back(Quantile(&lat, 0.5));
    p90.push_back(Quantile(&lat, 0.9));
    p99.push_back(Quantile(&lat, 0.99));
  }
  r->SetMedian("lat_p50_us." + tag, p50, "us");
  r->info["lat_p90_us." + tag] = Median(p90);
  r->info["lat_p99_us." + tag] = Median(p99);
}

}  // namespace perfbench
