#include "perfbench/layers.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "core/pipeline.h"
#include "decoders/crf.h"
#include "encoders/rnn_encoder.h"
#include "perfbench/serve_client.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "runtime/runtime.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "stream/entity_memory.h"
#include "stream/stream_tagger.h"
#include "tensor/arena.h"
#include "tensor/batched.h"
#include "tensor/rng.h"
#include "tensor/rnn.h"
#include "text/stream_tokenizer.h"

namespace perfbench {

using namespace dlner;

namespace {

constexpr int kBatch = 16;        // the plan's micro-batch size
constexpr int kReps = 20;         // timed calls per replay
constexpr std::size_t kChunk = 512;  // bytes per stream chunk

// Self times of the spans named `span`, each divided by `per[i]` (the
// calls span i covered; 1 when `per` is empty) and by `scale`.
std::vector<double> SelfSamples(const std::string& span, double scale,
                                const std::vector<double>& per = {}) {
  const Spans& spans = Spans::Get();
  const std::vector<std::int64_t> self = spans.SelfTimesNs();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (span != spans.at(i).name) continue;
    const double n = out.size() < per.size() ? per[out.size()] : 1.0;
    out.push_back(static_cast<double>(self[i]) / n / scale);
  }
  return out;
}

std::vector<std::vector<const Tokens*>> Batches(const std::vector<Tokens>& s,
                                                int count) {
  std::vector<std::vector<const Tokens*>> out(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < out.size() * kBatch; ++i) {
    out[i / kBatch].push_back(&s[i % s.size()]);
  }
  return out;
}

text::Corpus CorpusOf(const std::vector<const Tokens*>& batch) {
  text::Corpus c;
  for (const Tokens* t : batch) c.sentences.push_back({*t, {}});
  return c;
}

void CoreAndPlan(const core::Pipeline& p, const std::vector<Tokens>& s,
                 Result* r) {
  const auto batches = Batches(s, kReps);
  for (int i = 0; i < 4 * kReps; ++i) {
    const text::Corpus one = CorpusOf({&s[static_cast<std::size_t>(i) % s.size()]});
    Scope span("core", "core/tag_corpus_b1");
    p.TagCorpus(one);
  }
  for (const auto& b : batches) {
    const text::Corpus c = CorpusOf(b);
    Scope span("core", "core/tag_corpus_b16");
    p.TagCorpus(c);
  }
  r->SetMedian("pipeline.tag_corpus_us.b1",
               SelfSamples("core/tag_corpus_b1", 1e3), "us");
  r->SetMedian("pipeline.tag_corpus_us.b16",
               SelfSamples("core/tag_corpus_b16", 1e3), "us");

  const plan::InferencePlan& plan = p.model()->plan();
  for (const auto& b : batches) {
    std::vector<std::vector<text::Span>> out(b.size());
    Scope span("plan", "plan/execute");
    plan.Execute(b, &out);
  }
  r->SetMedian("plan.execute_us.b16", SelfSamples("plan/execute", 1e3), "us");
}

void PlanCompile(core::Pipeline* p, Result* r) {
  core::NerModel* m = p->model();
  const plan::PlanModules modules{m->representation(), m->encoder(), nullptr,
                                  m->decoder()};
  for (int i = 0; i < 5; ++i) {
    Scope span("plan", "plan/compile");
    const plan::InferencePlan plan(modules);
  }
  r->SetMedian("plan.compile_ms", SelfSamples("plan/compile", 1e6), "ms");
}

void RuntimeScaling(const core::Pipeline& p, const std::vector<Tokens>& s,
                    Result* r) {
  text::Corpus corpus;
  for (std::size_t i = 0; i < 512; ++i) {
    corpus.sentences.push_back({s[i % s.size()], {}});
  }
  runtime::Runtime& rt = runtime::Runtime::Get();
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  rt.SetThreads(1);
  p.TagCorpus(corpus);  // warm the new pool's threads and arenas
  for (int i = 0; i < 3; ++i) {
    Scope span("runtime", "runtime/tag_corpus_1t");
    p.TagCorpus(corpus);
  }
  rt.SetThreads(nproc);
  p.TagCorpus(corpus);
  // PoolStats::idle_wait_us is collected only while obs metrics are on.
  obs::EnableMetrics(true);
  obs::Metrics& m = obs::Metrics::Get();
  const auto read = [&](const char* name) {
    rt.PublishMetrics();
    return m.gauge(name)->value();
  };
  const double helper0 = read("runtime.pool.chunks_helper");
  const double caller0 = read("runtime.pool.chunks_caller");
  const double idle0 = read("runtime.pool.idle_wait_us");
  for (int i = 0; i < 3; ++i) {
    Scope span("runtime", "runtime/tag_corpus_nproc");
    p.TagCorpus(corpus);
  }
  const double helper = read("runtime.pool.chunks_helper") - helper0;
  const double caller = read("runtime.pool.chunks_caller") - caller0;
  const double idle = read("runtime.pool.idle_wait_us") - idle0;
  obs::EnableMetrics(false);
  r->Set("runtime.scaling_nproc",
         Median(SelfSamples("runtime/tag_corpus_1t", 1.0)) /
             Median(SelfSamples("runtime/tag_corpus_nproc", 1.0)),
         "x", 3);
  r->Set("runtime.helper_chunk_share",
         helper + caller > 0 ? helper / (helper + caller) : 0.0, "share");
  r->Set("runtime.idle_wait_us", idle / 3.0, "us", 3);
}

// The BiLSTM encoder, the emission affine and Viterbi decode of the CRF at
// the workload's batch shapes. Flops and bytes are computed from tensor
// sizes (compulsory traffic: inputs, outputs and weights once), not
// measured by counters.
void TensorKernels(core::Pipeline* p, const std::vector<Tokens>& s,
                   Result* r) {
  const auto* rnn =
      dynamic_cast<const encoders::RnnEncoder*>(p->model()->encoder());
  const auto* crf =
      dynamic_cast<const decoders::CrfDecoder*>(p->model()->decoder());
  if (rnn == nullptr || crf == nullptr || rnn->layers().empty()) {
    r->Fail("fixture model is not bilstm+crf");
    return;
  }
  const BiRnn& layer = *rnn->layers().front();
  const auto* fl = dynamic_cast<const LstmCell*>(&layer.forward_cell());
  const auto* bl = dynamic_cast<const LstmCell*>(&layer.backward_cell());
  if (fl == nullptr || bl == nullptr) {
    r->Fail("fixture encoder is not an LSTM");
    return;
  }
  const int hid = fl->hidden_dim();
  const Tensor& wf = fl->gates().weight()->value;
  const int in = wf.rows() - hid;
  const batched::LstmDir fwd{&wf, &fl->gates().bias()->value};
  const batched::LstmDir bwd{&bl->gates().weight()->value,
                             &bl->gates().bias()->value};
  const Tensor& pw = crf->proj().weight()->value;
  const Tensor& pb = crf->proj().bias()->value;
  const int k = crf->proj().out_dim();
  const double fsize = sizeof(Float);

  Rng rng(17);
  Arena arena;
  std::vector<double> lstm_flops, lstm_bytes, affine_flops;
  std::size_t high_water = 0;
  for (const auto& b : Batches(s, kReps)) {
    batched::BatchLayout layout;
    for (const Tokens* t : b) layout.Add(static_cast<int>(t->size()));
    const int rows = layout.rows();
    std::vector<Float> x(static_cast<std::size_t>(rows) * in);
    for (Float& v : x) v = rng.Uniform(-1.0, 1.0);
    std::vector<Float> h(static_cast<std::size_t>(rows) * 2 * hid);
    std::vector<Float> em(static_cast<std::size_t>(rows) * k);
    arena.Reset();
    {
      Scope span("tensor", "tensor/bilstm");
      batched::BiLstm(x.data(), in, hid, layout, fwd, bwd, h.data(), &arena);
    }
    high_water = std::max(high_water, arena.high_water());
    lstm_flops.push_back(2.0 * rows * 2.0 * (in + hid) * 4.0 * hid);
    lstm_bytes.push_back(fsize * (static_cast<double>(rows) * (in + 2 * hid) +
                                  2.0 * (in + hid + 1) * 4.0 * hid));
    {
      Scope span("tensor", "tensor/affine");
      batched::Affine(h.data(), rows, pw, pb, em.data());
    }
    affine_flops.push_back(2.0 * rows * 2.0 * hid * k);
    std::vector<Tensor> emissions;
    for (int i = 0; i < layout.batch(); ++i) {
      Tensor e({layout.len(i), k});
      std::copy_n(em.data() + static_cast<std::size_t>(layout.offset(i)) * k,
                  static_cast<std::size_t>(layout.len(i)) * k, e.data());
      emissions.push_back(std::move(e));
    }
    Scope span("tensor", "tensor/crf_decode");
    for (const Tensor& e : emissions) crf->ViterbiPath(e);
  }
  // Self nanoseconds per flop, inverted: flops per nanosecond = GFLOP/s.
  std::vector<double> g = SelfSamples("tensor/bilstm", 1.0, lstm_flops);
  for (double& v : g) v = 1.0 / v;
  r->SetMedian("tensor.bilstm_gflops", g, "GFLOP/s");
  g = SelfSamples("tensor/affine", 1.0, affine_flops);
  for (double& v : g) v = 1.0 / v;
  r->SetMedian("tensor.affine_gflops", g, "GFLOP/s");
  r->SetMedian("tensor.crf_decode_us", SelfSamples("tensor/crf_decode", 1e3),
               "us");
  r->SetMedian("tensor.bilstm_bytes", lstm_bytes, "B");
  r->Set("arena.high_water_bytes", static_cast<double>(high_water), "B");
}

void ProtocolAndCache(const core::Pipeline& p, const LayerInputs& in,
                      Result* r) {
  const std::size_t n = std::min<std::size_t>(in.stream.size(), 8192);
  text::Corpus corpus;
  for (std::size_t i = 0; i < n; ++i) corpus.sentences.push_back({in.stream[i], {}});
  const auto spans = p.TagCorpus(corpus);
  std::vector<std::string> lines, payloads, keys;
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back(RequestLine(static_cast<std::int64_t>(i), in.stream[i], false));
    payloads.push_back(serve::TagPayload(in.stream[i], spans[i]));
    keys.push_back(serve::LruCache::Key("default", 1, in.stream[i]));
  }

  constexpr std::size_t kPer = 512;  // calls per span
  std::vector<double> per;
  for (std::size_t lo = 0; lo < n; lo += kPer) {
    const std::size_t hi = std::min(n, lo + kPer);
    per.push_back(static_cast<double>(hi - lo));
    serve::Request req;
    std::string error;
    int code = 0;
    {
      Scope span("serve/protocol", "protocol/parse");
      for (std::size_t i = lo; i < hi; ++i) {
        serve::ParseRequest(lines[i], &req, &error, &code);
      }
    }
    Scope span("serve/protocol", "protocol/render");
    for (std::size_t i = lo; i < hi; ++i) {
      req.id = static_cast<std::int64_t>(i);
      serve::TagResponse(req, false, payloads[i]);
    }
  }
  r->SetMedian("protocol.parse_ns", SelfSamples("protocol/parse", 1.0, per), "ns");
  r->SetMedian("protocol.render_ns", SelfSamples("protocol/render", 1.0, per), "ns");

  serve::LruCache cache(4096);  // dlner_serve's default capacity
  std::vector<double> gets, puts;
  std::int64_t hits = 0;
  for (std::size_t lo = 0; lo < n; lo += kPer) {
    const std::size_t hi = std::min(n, lo + kPer);
    std::vector<std::size_t> missed;
    std::string value;
    {
      Scope span("serve/cache", "cache/get");
      for (std::size_t i = lo; i < hi; ++i) {
        if (!cache.Get(keys[i], &value)) missed.push_back(i);
      }
    }
    gets.push_back(static_cast<double>(hi - lo));
    hits += static_cast<std::int64_t>(hi - lo - missed.size());
    if (missed.empty()) continue;
    Scope span("serve/cache", "cache/put");
    for (const std::size_t i : missed) cache.Put(keys[i], payloads[i]);
    puts.push_back(static_cast<double>(missed.size()));
  }
  r->SetMedian("cache.get_ns", SelfSamples("cache/get", 1.0, gets), "ns");
  r->SetMedian("cache.put_ns", SelfSamples("cache/put", 1.0, puts), "ns");
  if (!in.server_hit_ratio) {
    r->Set("cache.hit_ratio", static_cast<double>(hits) / static_cast<double>(n),
           "share", static_cast<int>(n));
  }
}

void TextAndStream(const core::Pipeline& p, const std::string& text,
                   Result* r) {
  for (int pass = 0; pass < 3; ++pass) {
    text::StreamTokenizer tok;
    Scope span("text", "text/tokenize");
    for (std::size_t off = 0; off < text.size(); off += kChunk) {
      tok.Feed(std::string_view(text).substr(off, kChunk));
      while (tok.HasSentence()) tok.NextSentence();
    }
    tok.Flush();
    while (tok.HasSentence()) tok.NextSentence();
  }
  std::vector<double> mb(SelfSamples("text/tokenize", 1.0));
  for (double& v : mb) v = static_cast<double>(text.size()) / v * 1e3;
  r->SetMedian("stream.tokenize_mb_per_s", mb, "MB/s");

  stream::StreamOptions opts;
  opts.flush_deadline_us = 0;
  opts.doc_context = 1;
  stream::StreamTagger tagger(&p, opts);
  std::vector<stream::TaggedSentence> tagged;
  // Two documents of at most 32 KiB each keep the replay near a second.
  const std::size_t doc_bytes = std::min<std::size_t>(text.size() / 2, 32768);
  for (int doc = 0; doc < 2; ++doc) {
    const std::string_view body =
        std::string_view(text).substr(static_cast<std::size_t>(doc) * doc_bytes,
                                      doc_bytes);
    for (std::size_t off = 0; off < body.size(); off += kChunk) {
      Scope span("stream", "stream/feed");
      for (auto& t : tagger.Feed(body.substr(off, kChunk))) {
        tagged.push_back(std::move(t));
      }
    }
    Scope span("stream", "stream/flush");
    for (auto& t : tagger.Flush()) tagged.push_back(std::move(t));
  }
  std::vector<double> feed = SelfSamples("stream/feed", 1e3);
  r->Set("stream.feed_us.p50", Quantile(&feed, 0.5), "us",
         static_cast<int>(feed.size()));
  r->Set("stream.feed_us.p99", Quantile(&feed, 0.99), "us",
         static_cast<int>(feed.size()));
  r->SetMedian("stream.flush_us", SelfSamples("stream/flush", 1e3), "us");

  constexpr std::size_t kPer = 64;
  stream::EntityMemory memory;
  std::vector<double> per;
  for (std::size_t lo = 0; lo < tagged.size(); lo += kPer) {
    const std::size_t hi = std::min(tagged.size(), lo + kPer);
    per.push_back(static_cast<double>(hi - lo));
    std::vector<std::vector<text::Span>> applied;
    {
      Scope span("stream", "entity_memory/apply");
      for (std::size_t i = lo; i < hi; ++i) {
        applied.push_back(tagged[i].spans);
        memory.Apply(tagged[i].tokens, &applied.back());
      }
    }
    Scope span("stream", "entity_memory/observe");
    for (std::size_t i = lo; i < hi; ++i) {
      memory.Observe(tagged[i].tokens, applied[i - lo]);
    }
  }
  r->SetMedian("entity_memory.apply_us",
               SelfSamples("entity_memory/apply", 1e3, per), "us");
  r->SetMedian("entity_memory.observe_us",
               SelfSamples("entity_memory/observe", 1e3, per), "us");
}

}  // namespace

void RunLayerReplays(const LayerInputs& in, Result* r) {
  Scope root("bench", "replay");
  std::unique_ptr<core::Pipeline> p;
  for (int i = 0; i < 3; ++i) {
    Scope span("core", "core/pipeline_load");
    p = core::Pipeline::Load(in.model_path);
  }
  if (p == nullptr || in.stream.empty()) {
    r->Fail("layer replay: cannot load the fixture model");
    return;
  }
  r->SetMedian("pipeline.load_ms", SelfSamples("core/pipeline_load", 1e6), "ms");

  serve::ModelRegistry registry;
  for (int i = 0; i < 3; ++i) {
    Scope span("serve/registry", "registry/load");
    r->Check(registry.Load("default", in.model_path), "registry load failed");
  }
  r->SetMedian("registry.load_ms", SelfSamples("registry/load", 1e6), "ms");

  PlanCompile(p.get(), r);
  CoreAndPlan(*p, in.stream, r);
  RuntimeScaling(*p, in.stream, r);
  TensorKernels(p.get(), in.stream, r);
  ProtocolAndCache(*p, in, r);
  TextAndStream(*p, in.text, r);
}

}  // namespace perfbench
