// Benchmark runner: one run of one workload. run.py builds it, passes the
// workload's parameters from workloads.json, and turns the JSON printed
// here into the benchmark's result line.
//
//   perfbench_runner --workload serve_mixed --seed 1 --seconds 40 --trace 0
//       --serve-bin PATH --work-dir DIR [--param key=value ...]
//
// Workloads (why each exists: workloads.json and README.md):
//   offline_corpus  Pipeline::TagCorpus over a pre-tokenized corpus
//   serve_mixed     dlner_serve, Zipf repeats + doc + churn + scrape + reload
//
// Every workload reports the same end-to-end metrics. sentences_per_s is
// the median closed-loop pass. Latencies are of the workload's unit of
// work at its fixed `low` and `high` open-loop rates: a request for
// serve_mixed, a job_sentences TagCorpus call for offline_corpus.
// max_rps_at_slo is the highest grid rate of those units meeting kSloUs.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/pipeline.h"
#include "perfbench/common.h"
#include "perfbench/fixture.h"
#include "perfbench/layers.h"
#include "perfbench/openloop.h"
#include "perfbench/serve_client.h"
#include "serve/protocol.h"
#include "stream/stream_tagger.h"
#include "tensor/rng.h"
#include "tensor/simd/simd.h"

namespace perfbench {
namespace {

using namespace dlner;

/// Server stage means must add up to the request-latency mean within this
/// share of it (plus kReconcileSlackUs). The stages leave out only the
/// registry lookup before compute and, for the i-th request of a batch,
/// the writes of the i-1 answers before it.
constexpr double kReconcileShare = 0.10;
constexpr double kReconcileSlackUs = 50.0;

/// Interleaved rounds of the fixed-rate phases (see RunFixed).
constexpr int kSegments = 4;

/// Shares of --seconds spent in closed-loop passes and at the low and high
/// rates; the saturation search gets the rest.
constexpr double kClosedShare = 0.15;
constexpr double kLowShare = 0.25;
constexpr double kHighShare = 0.15;

/// serve_mixed closed-loop passes: requests per pass, and how many of them
/// may be unanswered at once (a quarter of the server's admission queue).
constexpr int kClosedRequests = 2000;
constexpr int kClosedWindow = 64;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 15;

/// Chunk size of the stream correctness check.
constexpr std::size_t kStreamChunk = 128;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
  std::map<std::string, double> params;

  double P(const std::string& key) const {
    const auto it = params.find(key);
    if (it == params.end()) {
      std::fprintf(stderr, "perfbench_runner: missing --param %s\n",
                   key.c_str());
      std::exit(2);
    }
    return it->second;
  }
};

double Seconds(std::int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) / 1e9;
}

text::Corpus ToCorpus(const std::vector<Tokens>& s, std::size_t lo,
                      std::size_t hi) {
  text::Corpus c;
  for (std::size_t i = lo; i < hi; ++i) c.sentences.push_back({s[i], {}});
  return c;
}

bool SameSpans(const std::vector<std::vector<text::Span>>& got,
               const std::vector<std::vector<text::Span>>& want,
               std::size_t offset) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (offset + i >= want.size() || got[i] != want[offset + i]) return false;
  }
  return true;
}

void AppendTagged(const std::vector<stream::TaggedSentence>& out,
                  std::vector<stream::TaggedSentence>* acc) {
  acc->insert(acc->end(), out.begin(), out.end());
}

bool SameTagged(const std::vector<stream::TaggedSentence>& a,
                const std::vector<stream::TaggedSentence>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tokens != b[i].tokens || a[i].spans != b[i].spans) return false;
  }
  return true;
}

/// Not timed: a long_doc document (>= 10k tokens) fed to StreamTagger in
/// kStreamChunk-byte chunks, doc context on, must come out exactly as when
/// it is fed whole.
void CheckStreamChunking(const core::Pipeline& p, std::uint64_t seed,
                         Result* r) {
  const std::string doc = LongDocuments(seed, 1)[0];
  stream::StreamOptions opts;
  opts.flush_deadline_us = 0;  // size-triggered flushes only
  opts.doc_context = 1;
  stream::StreamTagger whole(&p, opts), chunked(&p, opts);
  std::vector<stream::TaggedSentence> want = whole.Feed(doc);
  AppendTagged(whole.Flush(), &want);
  std::vector<stream::TaggedSentence> got;
  for (std::size_t off = 0; off < doc.size(); off += kStreamChunk) {
    AppendTagged(chunked.Feed(std::string_view(doc).substr(off, kStreamChunk)),
                 &got);
  }
  AppendTagged(chunked.Flush(), &got);
  r->Check(!want.empty() && SameTagged(got, want),
           "chunked stream output differs from whole-document output");
}

/// The fixed rates of a workload, its phase lengths and its
/// saturation-search grid. A probe lasts probe_s: long enough for some
/// 2000 arrivals or more at the workload's knee, so that the p99 it is
/// judged by rests on enough samples.
struct RatePlan {
  double low_rate, high_rate, grid_base, search_start, probe_s;
  double closed_s, low_s, high_s;
};

/// Closed-loop passes for `seconds`; returns each pass's sentences/s.
using ClosedFn = std::function<std::vector<double>(double seconds)>;

/// The fixed-rate measurement, interleaved as kSegments rounds of
/// closed-loop passes, low, high: a slow stretch of the shared host then
/// hits one round of each phase instead of all of one phase, and the
/// per-round medians below discard it.
struct Fixed {
  std::vector<PhaseTally> low, high;
  std::vector<double> closed_rates;

  PhaseTally Merged() const {
    PhaseTally all;
    for (const auto* v : {&low, &high}) {
      for (const PhaseTally& t : *v) all.Merge(t);
    }
    return all;
  }
};

/// `boundary(ended)` (may be empty) runs before the first phase with ""
/// and after every phase with its name, "closed", "low" or "high" (serve:
/// metrics scrapes).
Fixed RunFixed(const RatePlan& plan, const PhaseFn& run, const ClosedFn& closed,
               const std::function<void(const char*)>& boundary) {
  const auto mark = [&](const char* ended) {
    if (boundary) boundary(ended);
  };
  Fixed f;
  mark("");
  for (int seg = 0; seg < kSegments; ++seg) {
    for (const double v : closed(plan.closed_s / kSegments)) {
      f.closed_rates.push_back(v);
    }
    mark("closed");
    f.low.push_back(run(plan.low_rate, plan.low_s / kSegments));
    mark("low");
    f.high.push_back(run(plan.high_rate, plan.high_s / kSegments));
    mark("high");
  }
  return f;
}

void ReportLoadgen(Result* r, const PhaseTally& fixed) {
  std::vector<double> late = fixed.late_us;
  r->Set("loadgen.late_p99_us", Quantile(&late, 0.99), "us",
         static_cast<int>(late.size()));
  r->Set("loadgen.sent", static_cast<double>(fixed.attempted - fixed.unsent),
         "count");
  r->Set("loadgen.ok", static_cast<double>(fixed.ok), "count");
  r->Set("loadgen.refused", static_cast<double>(fixed.refused), "count");
  r->Set("loadgen.failed",
         static_cast<double>(fixed.failed + fixed.unsent + fixed.unanswered),
         "count");
  r->Set("loadgen.wrong", static_cast<double>(fixed.wrong), "count");
}

/// Latency metrics, the run's attempted/failed counts and the output check
/// of the fixed-rate phases.
void ReportFixed(Result* r, const Fixed& f) {
  ReportLatency(r, f.low, "low");
  ReportLatency(r, f.high, "high");
  const PhaseTally all = f.Merged();
  r->attempted += all.attempted;
  r->failed += all.bad();
  r->Check(all.wrong == 0, "wrong outputs in the fixed-rate phases");
  r->info["fixed.backlog_at_end"] = static_cast<double>(all.backlog_at_end);
}

void Search(Result* r, const RatePlan& plan, const PhaseFn& run,
            double budget_s) {
  const SearchResult s =
      SearchMaxRate(run, plan.grid_base, plan.search_start, plan.probe_s,
                    budget_s);
  r->Set("max_rps_at_slo", s.rps, "1/s");
  r->info["search.rung_rps"] = s.rung_rps;
  r->info["search.probes"] = s.probes;
}

RatePlan PlanFrom(const Args& a) {
  return RatePlan{a.P("low_rate"),          a.P("high_rate"),
                  a.P("grid_base"),         a.P("search_start"),
                  a.P("probe_s"),           kClosedShare * a.seconds,
                  kLowShare * a.seconds,    kHighShare * a.seconds};
}

void SetOverhead(Result* r, double untraced, double traced, bool higher_better) {
  r->Set("obs.trace_overhead_share",
         higher_better ? (untraced - traced) / untraced
                       : (traced - untraced) / untraced,
         "share");
}

/// The measurement of the in-process workloads: interleaved closed-loop
/// passes (sentences_per_s) and fixed-rate phases, then the saturation
/// search; traced runs repeat the fixed part with spans on instead.
void InProcessRates(const Args& a, const PhaseFn& run, const ClosedFn& closed,
                    Result* r) {
  const RatePlan plan = PlanFrom(a);
  const std::int64_t t0 = NowNs();
  const Fixed f = RunFixed(plan, run, closed, {});
  r->SetMedian("sentences_per_s", f.closed_rates, "1/s");
  ReportFixed(r, f);
  // Before the search, which overloads on purpose.
  r->Set("peak_rss_mb", ReadProcStatus(getpid()).hwm_mb, "MB");
  if (!a.trace) {
    Search(r, plan, run, a.seconds - Seconds(t0));
    return;
  }
  Spans::Get().Enable(true);
  const Fixed traced = RunFixed(plan, run, closed, {});
  Spans::Get().Enable(false);
  SetOverhead(r, Median(f.closed_rates), Median(traced.closed_rates), true);
  ReportLoadgen(r, traced.Merged());
  r->Check(traced.Merged().wrong == 0, "wrong outputs in the traced phases");
}

// --- offline_corpus -------------------------------------------------------

void OfflineCorpus(const Args& a, const std::string& model, Result* r,
                   LayerInputs* in) {
  const auto n = static_cast<std::size_t>(a.P("corpus_sentences"));
  const auto job = static_cast<std::size_t>(a.P("job_sentences"));
  const std::vector<Tokens> sentences = UniqueSentences(a.seed, n);
  const text::Corpus corpus = ToCorpus(sentences, 0, n);
  in->stream = sentences;
  in->text = RenderText(sentences);

  // Reference output, and the planned == eager contract on a sample.
  std::vector<std::vector<text::Span>> ref;
  {
    auto p = core::Pipeline::Load(model);
    ref = p->TagCorpus(corpus);
    p->model()->set_plan_inference(false);
    const std::size_t sample = std::min<std::size_t>(n, 256);
    r->Check(SameSpans(p->TagCorpus(ToCorpus(sentences, 0, sample)), ref, 0),
             "planned output differs from eager output");
    p->model()->set_plan_inference(true);
    CheckStreamChunking(*p, a.seed, r);
  }

  std::unique_ptr<core::Pipeline> p;
  std::vector<double> setup;
  const text::Corpus first = ToCorpus(sentences, 0, std::min<std::size_t>(n, 16));
  for (int rep = 0; rep < (a.trace ? 1 : kSetupReps); ++rep) {
    const std::int64_t t0 = NowNs();
    p = core::Pipeline::Load(model);
    p->model()->plan();
    const auto out = p->TagCorpus(first);
    setup.push_back(Seconds(t0));
    r->Check(SameSpans(out, ref, 0), "setup output differs from reference");
  }
  r->SetMedian("setup_s", setup, "s");

  const auto closed = [&](double seconds) {
    std::vector<double> rates;
    const std::int64_t t0 = NowNs();
    do {
      const std::int64_t s0 = NowNs();
      std::vector<std::vector<text::Span>> out;
      {
        Scope span("core", "core/tag_corpus");
        out = p->TagCorpus(corpus);
      }
      rates.push_back(static_cast<double>(n) / Seconds(s0));
      r->Check(SameSpans(out, ref, 0), "corpus output differs from reference");
    } while (Seconds(t0) < seconds);
    return rates;
  };
  // Every phase and probe replays the same arrival pattern, scaled to its
  // rate, over the same jobs from the start of the corpus (common random
  // numbers): rungs of the search then differ only in their rate.
  const std::size_t jobs = n / job;
  const PhaseFn run = [&](double rate, double seconds) {
    Rng rng(a.seed ^ 0x0ff11e);
    return RunInProcess(
        PoissonSchedule(rate, seconds, &rng),
        [&](std::size_t i) {
          const std::size_t lo = (i % jobs) * job;
          return SameSpans(p->TagCorpus(ToCorpus(sentences, lo, lo + job)), ref,
                           lo);
        },
        "loadgen", "loadgen/job");
  };
  InProcessRates(a, run, closed, r);
}

// --- serve_mixed ----------------------------------------------------------

class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int Draw(Rng* rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->Uniform());
    return static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

void ServeMixed(const Args& a, const std::string& model, Result* r,
                LayerInputs* in) {
  const RatePlan plan = PlanFrom(a);
  const std::vector<Tokens> pool =
      UniqueSentences(a.seed, static_cast<std::size_t>(a.P("pool")));
  auto ref_pipeline = core::Pipeline::Load(model);
  Answers answers;
  answers.sentences = &pool;
  answers.spans.resize(pool.size());
  answers.payloads.resize(pool.size());
  std::vector<char> known(pool.size(), 0);
  const auto ensure = [&](const std::vector<Item>& items) {
    std::vector<int> todo;
    for (const Item& it : items) {
      if (!known[static_cast<std::size_t>(it.sentence)]) {
        known[static_cast<std::size_t>(it.sentence)] = 1;
        todo.push_back(it.sentence);
      }
    }
    text::Corpus c;
    for (const int i : todo) c.sentences.push_back({pool[static_cast<std::size_t>(i)], {}});
    const auto spans = ref_pipeline->TagCorpus(c);
    for (std::size_t k = 0; k < todo.size(); ++k) {
      const auto i = static_cast<std::size_t>(todo[k]);
      answers.spans[i] = spans[k];
      answers.payloads[i] = serve::TagPayload(pool[i], spans[k]);
    }
  };

  // setup_s: process start to the first correct answer.
  const Tokens warm = {"Elena", "Rossi", "joined", "Quantum", "Labs", "."};
  serve::Request warm_req;
  warm_req.has_id = true;
  warm_req.id = 1;
  const std::string warm_expected = serve::TagResponse(
      warm_req, false,
      serve::TagPayload(warm, ref_pipeline->Tag(warm)));
  std::vector<double> setup;
  auto server = std::make_unique<ServerProcess>();
  const int reps = a.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) {
      r->Check(server->Stop(), "dlner_serve did not exit cleanly");
      server = std::make_unique<ServerProcess>();
    }
    std::string error;
    const std::int64_t t0 = NowNs();
    if (!server->Start(a.serve_bin, model,
                       a.work_dir + "/serve" + std::to_string(rep), &error)) {
      r->Fail(error);
      return;
    }
    LineConn c;
    std::string line;
    const bool answered =
        c.Connect(server->port()) &&
        c.Send(RequestLine(1, warm, false)) &&
        c.ReadLine(&line, 30'000);
    setup.push_back(Seconds(t0));
    r->Check(answered && line == warm_expected,
             "first served answer differs from dlner tag");
  }
  r->SetMedian("setup_s", setup, "s");
  const double rss_ready = ReadProcStatus(server->pid()).rss_mb;

  LoadGen lg(server->port(), static_cast<int>(a.P("conns")),
             static_cast<int>(a.P("churn_slots")), &answers);
  if (!lg.ok()) {
    r->Fail("cannot connect the load generator");
    return;
  }

  Rng rng(a.seed ^ 0x313eedULL);
  std::unordered_set<int> seen;
  std::int64_t requests = 0, repeats = 0;
  const ZipfSampler zipf(pool.size(), a.P("zipf_s"));
  const auto make_items = [&](const std::vector<std::int64_t>& due) {
    std::vector<Item> items;
    for (const std::int64_t d : due) {
      Item it;
      it.due_ns = d;
      it.sentence = zipf.Draw(&rng);
      it.doc = rng.Bernoulli(a.P("doc_share"));
      it.churn = !it.doc && rng.Bernoulli(a.P("churn_share"));
      ++requests;
      if (!seen.insert(it.sentence).second) ++repeats;
      if (in->stream.size() < 8192) {
        in->stream.push_back(pool[static_cast<std::size_t>(it.sentence)]);
      }
      items.push_back(it);
    }
    ensure(items);
    return items;
  };

  // A metrics scrape every second of every phase, and one hot reload of the
  // same checkpoint halfway through the last high segment.
  std::int64_t reload_id = -1;
  bool reload_pending = false;
  const auto tick_for = [&](double seconds) {
    auto next_scrape = std::make_shared<std::int64_t>(1'000'000'000);
    auto reloaded = std::make_shared<bool>(!reload_pending);
    const auto half = static_cast<std::int64_t>(seconds * 0.5e9);
    return std::function<void(std::int64_t)>(
        [&, next_scrape, reloaded, half](std::int64_t offset) {
          if (offset >= *next_scrape) {
            lg.SendAdmin("\"cmd\":\"metrics\"");
            *next_scrape += 1'000'000'000;
          }
          if (!*reloaded && offset >= half) {
            reload_id = lg.SendAdmin("\"cmd\":\"reload\",\"model\":\"default\","
                                     "\"path\":" + serve::JsonQuote(model));
            *reloaded = true;
          }
        });
  };
  const PhaseFn run = [&](double rate, double seconds) {
    const std::vector<Item> items = make_items(PoissonSchedule(rate, seconds, &rng));
    return lg.RunPhase(items, tick_for(seconds));
  };
  // Closed-loop passes of the same traffic mix (sentences_per_s): the
  // server's own throughput with kClosedWindow requests waiting on it.
  PhaseTally closed_all;
  const ClosedFn closed = [&](double seconds) {
    std::vector<double> rates;
    const std::int64_t t0 = NowNs();
    do {
      const std::vector<Item> items =
          make_items(std::vector<std::int64_t>(kClosedRequests, 0));
      const PhaseTally t = lg.RunPhase(items, tick_for(seconds), kClosedWindow);
      rates.push_back(t.achieved_rps());
      closed_all.Merge(t);
    } while (Seconds(t0) < seconds);
    return rates;
  };

  // A metrics scrape at every phase boundary of RunFixed, with the name of
  // the phase it ends; a phase's deltas are those of the scrapes ending it.
  std::vector<std::pair<std::string, Scrape>> scrapes;
  const auto boundary = [&](const char* ended) {
    scrapes.emplace_back(ended, Scrape{});
    r->Check(lg.ScrapeMetrics(&scrapes.back().second), "metrics scrape failed");
    // After the last low segment comes the last high one: it carries the
    // reload, so the cache it empties refills in one segment of the four.
    reload_pending =
        std::string(ended) == "low" &&
        std::count_if(scrapes.begin(), scrapes.end(), [](const auto& s) {
          return s.first == "low";
        }) == kSegments;
  };
  const auto phase_delta = [&](const std::string& phase, const char* name) {
    obs::HistogramSnapshot sum;
    for (std::size_t i = 1; i < scrapes.size(); ++i) {
      if (scrapes[i].first != phase) continue;
      sum.Merge(HistDelta(scrapes[i].second.Hist(name),
                          scrapes[i - 1].second.Hist(name)));
    }
    return sum;
  };
  const auto value_delta = [&](const std::string& phase, const char* name) {
    double sum = 0.0;
    for (std::size_t i = 1; i < scrapes.size(); ++i) {
      if (scrapes[i].first != phase) continue;
      sum += scrapes[i].second.Value(name) - scrapes[i - 1].second.Value(name);
    }
    return sum;
  };
  const auto reconcile = [&](const std::string& phase) {
    const auto mean = [&](const char* name) {
      return HistMean(phase_delta(phase, name));
    };
    const double lat = mean("serve_request_latency_us");
    const double stages =
        mean("serve_stage_queue_wait_us") + mean("serve_stage_batch_wait_us") +
        mean("serve_stage_compute_us") + mean("serve_stage_write_us");
    const double hits = value_delta(phase, "serve_cache_hits");
    const double misses = value_delta(phase, "serve_cache_misses");
    r->info["phase." + phase + ".hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    r->info["reconcile." + phase + ".latency_mean_us"] = lat;
    r->info["reconcile." + phase + ".stage_sum_us"] = stages;
    r->Check(lat > 0.0 && std::abs(lat - stages) <=
                              kReconcileShare * lat + kReconcileSlackUs,
             "server stage means do not add up to the latency mean (" +
                 phase + ")");
  };
  const auto fixed_phases = [&] {
    scrapes.clear();
    const Fixed f = RunFixed(plan, run, closed, boundary);
    reconcile("low");
    reconcile("high");
    std::string line;
    double rtt_ms = 0.0;
    r->Check(lg.AwaitAdmin(reload_id, &line, &rtt_ms) &&
                 line.find("\"ok\":true") != std::string::npos,
             "hot reload failed");
    r->Set("registry.reload_ms", rtt_ms, "ms");
    return f;
  };

  // Unmeasured: fills the LRU so the fixed phases see its steady state.
  r->Check(run(plan.high_rate, a.P("warmup_s")).wrong == 0,
           "wrong served outputs while warming the cache");
  const std::int64_t t_measure = NowNs();
  const Fixed f = fixed_phases();
  ReportFixed(r, f);
  r->SetMedian("sentences_per_s", f.closed_rates, "1/s");
  r->attempted += closed_all.attempted;
  r->failed += closed_all.bad();
  r->Check(closed_all.wrong == 0, "wrong outputs in the closed-loop passes");
  r->info["closed.ok"] = static_cast<double>(closed_all.ok);
  // Before the search, which overloads on purpose.
  r->Set("peak_rss_mb", ReadProcStatus(server->pid()).hwm_mb, "MB");
  if (!a.trace) {
    Search(r, plan, run, a.seconds - Seconds(t_measure));
  } else {
    Spans::Get().Enable(true);
    const Fixed traced = fixed_phases();
    Spans::Get().Enable(false);
    Result t;
    ReportLatency(&t, traced.high, "high");
    SetOverhead(r, r->metrics["lat_p50_us.high"].value,
                t.metrics["lat_p50_us.high"].value, false);
    const PhaseTally traced_all = traced.Merged();
    r->Check(traced_all.wrong == 0, "wrong served outputs in the traced phases");
    ReportLoadgen(r, traced_all);
    // Server stages over every fixed-rate segment of the traced phases.
    const auto hist = [&](const char* name) {
      obs::HistogramSnapshot h = phase_delta("low", name);
      h.Merge(phase_delta("high", name));
      return h;
    };
    const auto q = [&](const char* metric, const char* name, double quant) {
      const obs::HistogramSnapshot h = hist(name);
      r->Set(metric, HistQuantile(h, quant), "us", static_cast<int>(h.count));
    };
    q("serve.queue_wait_us.p50", "serve_stage_queue_wait_us", 0.5);
    q("serve.queue_wait_us.p99", "serve_stage_queue_wait_us", 0.99);
    q("serve.batch_wait_us.p50", "serve_stage_batch_wait_us", 0.5);
    q("serve.batch_wait_us.p99", "serve_stage_batch_wait_us", 0.99);
    q("serve.compute_us.p50", "serve_stage_compute_us", 0.5);
    q("serve.compute_us.p99", "serve_stage_compute_us", 0.99);
    q("serve.write_us.p99", "serve_stage_write_us", 0.99);
    r->Set("serve.batch_size.mean", HistMean(hist("serve_batch_size")), "count");
    const auto delta = [&](const char* name) {
      return value_delta("low", name) + value_delta("high", name);
    };
    const double deadline = delta("serve_batch_deadline_flushes");
    const double sized = delta("serve_batch_size_flushes");
    r->Set("serve.deadline_flush_share",
           deadline + sized > 0 ? deadline / (deadline + sized) : 0.0, "share");
    r->Set("serve.queue_peak_depth",
           scrapes.back().second.Value("serve_queue_peak_depth"), "count");
    const double hits = delta("serve_cache_hits");
    const double misses = delta("serve_cache_misses");
    r->Set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
           "share");
  }
  r->Set("loadgen.repeat_share",
         requests > 0 ? static_cast<double>(repeats) / static_cast<double>(requests)
                      : 0.0,
         "share", static_cast<int>(requests));
  r->info["loadgen.churn_opened"] = static_cast<double>(lg.churn_opened());
  r->info["loadgen.churn_fallback"] = static_cast<double>(lg.churn_fallback());
  const ProcStatus end = ReadProcStatus(server->pid());
  r->Set("serve.threads_end", end.threads, "count");
  r->Set("serve.rss_growth_mb", end.rss_mb - rss_ready, "MB");
  r->Check(server->Stop(), "dlner_serve did not exit cleanly");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--serve-bin") a->serve_bin = v;
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--param" && v.find('=') != std::string::npos) {
      a->params[v.substr(0, v.find('='))] = std::atof(v.c_str() + v.find('=') + 1);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && !a->work_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr, "usage: perfbench_runner --workload W --seed N "
                         "--seconds S --trace 0|1 --serve-bin PATH "
                         "--work-dir DIR [--param k=v ...]\n");
    return 2;
  }
  // Open-loop sends sleep to their due time; the default 50 us timer slack
  // would show up as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL);

  Result r;
  LayerInputs in;
  in.model_path = a.work_dir + "/model.bin";
  in.server_hit_ratio = a.workload == "serve_mixed";
  r.host["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.host["simd_isa"] = dlner::simd::kIsaName;
  r.host["compiler"] = __VERSION__;
  const std::string& model = in.model_path;
  double f1 = 0.0;
  std::string error;
  if (!TrainFixture(a.seed, model, &f1, &error)) {
    r.Fail(error);
  } else {
    r.info["fixture.f1"] = f1;
    if (a.workload == "offline_corpus") {
      OfflineCorpus(a, model, &r, &in);
    } else if (a.workload == "serve_mixed") {
      ServeMixed(a, model, &r, &in);
    } else {
      std::fprintf(stderr, "perfbench_runner: unknown workload %s\n",
                   a.workload.c_str());
      return 2;
    }
  }
  if (a.trace && r.failures.empty()) {
    if (in.text.empty()) in.text = RenderText(in.stream);
    Spans::Get().Enable(true);
    RunLayerReplays(in, &r);
    Spans::Get().Enable(false);
    r.Set("obs.dropped_spans", static_cast<double>(Spans::Get().dropped()),
          "count");
    r.Check(Spans::Get().dropped() == 0, "the span buffer dropped spans");
    r.Check(Spans::Get().WriteChromeTrace(a.work_dir + "/trace.json"),
            "cannot write the trace");
  }
  std::printf("%s\n", r.Json().c_str());
  return 0;
}
