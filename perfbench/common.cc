#include "perfbench/common.h"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void SleepUntilNs(std::int64_t ns) {
  if (ns <= NowNs()) return;
  timespec ts{};
  ts.tv_sec = ns / 1'000'000'000;
  ts.tv_nsec = ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double HistQuantile(const dlner::obs::HistogramSnapshot& h, double q) {
  return h.Percentile(std::clamp(q, 0.0, 1.0) * 100.0);
}

double HistMean(const dlner::obs::HistogramSnapshot& h) {
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

// --- Spans ---------------------------------------------------------------

namespace {

thread_local std::uint64_t t_open_span = 0;

int ThreadId() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1) + 1;
  return tid;
}

}  // namespace

Spans::Spans() = default;

void Spans::Enable(bool on) {
  if (on && buf_ == nullptr) buf_.reset(new Span[kCapacity]);
  enabled_.store(on, std::memory_order_relaxed);
}

Spans& Spans::Get() {
  static Spans* spans = new Spans();
  return *spans;
}

void Spans::Record(const char* layer, const char* name,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::uint64_t parent, std::uint64_t req) {
  if (enabled()) {
    RecordWithId(NewId(), layer, name, start_ns, end_ns, parent, req);
  }
}

void Spans::RecordWithId(std::uint64_t id, const char* layer,
                         const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::uint64_t parent,
                         std::uint64_t req) {
  if (!enabled() || id == 0) return;
  const std::size_t slot = used_.fetch_add(1);
  if (slot >= kCapacity) {
    dropped_.fetch_add(1);
    return;
  }
  buf_[slot] = Span{layer, name, id, parent, req, start_ns, end_ns,
                    ThreadId()};
}

std::size_t Spans::size() const { return std::min(used_.load(), kCapacity); }

std::vector<std::int64_t> Spans::SelfTimesNs() const {
  const std::size_t n = size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index[buf_[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = index.find(buf_[i].parent);
    if (buf_[i].parent != 0 && it != index.end()) {
      children[it->second].emplace_back(buf_[i].start_ns, buf_[i].end_ns);
    }
  }
  std::vector<std::int64_t> self(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = buf_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = buf_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"layer\":\"" << s.layer << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}}";
  }
  os << "],\"otherData\":{\"dropped_spans\":" << dropped() << "}}\n";
  return static_cast<bool>(os);
}

Scope::Scope(const char* layer, const char* name, std::uint64_t req)
    : layer_(layer), name_(name) {
  if (!Spans::Get().enabled()) return;
  id_ = Spans::Get().NewId();
  parent_ = t_open_span;
  req_ = req;
  t_open_span = id_;
  start_ = NowNs();
}

Scope::~Scope() {
  if (id_ == 0) return;
  Spans::Get().RecordWithId(id_, layer_, name_, start_, NowNs(), parent_,
                            req_);
  t_open_span = parent_;
}

// --- Result --------------------------------------------------------------

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace

void Result::Set(const std::string& name, double value,
                 const std::string& unit, int n) {
  metrics[name] = Metric{value, unit, n, value, value};
}

void Result::SetMedian(const std::string& name, std::vector<double> samples,
                       const std::string& unit) {
  Metric m;
  m.unit = unit;
  m.n = static_cast<int>(samples.size());
  m.q1 = Quantile(&samples, 0.25);
  m.q3 = Quantile(&samples, 0.75);
  m.value = Quantile(&samples, 0.5);
  metrics[name] = m;
}

void Result::Fail(const std::string& why) { failures.push_back(why); }

std::string Result::Json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (failures.empty() ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    os << (i ? "," : "") << Quote(failures[i]);
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ",") << Quote(name) << ":{\"value\":" << Num(m.value)
       << ",\"unit\":" << Quote(m.unit) << ",\"n\":" << m.n
       << ",\"q1\":" << Num(m.q1) << ",\"q3\":" << Num(m.q3) << "}";
    first = false;
  }
  os << "},\"info\":{";
  first = true;
  for (const auto& [name, v] : info) {
    os << (first ? "" : ",") << Quote(name) << ":" << Num(v);
    first = false;
  }
  os << "},\"host\":{";
  first = true;
  for (const auto& [name, v] : host) {
    os << (first ? "" : ",") << Quote(name) << ":" << Quote(v);
    first = false;
  }
  os << "}}";
  return os.str();
}

ProcStatus ReadProcStatus(int pid) {
  ProcStatus st;
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      in >> st.hwm_mb;
      st.hwm_mb /= 1024.0;
    } else if (key == "VmRSS:") {
      in >> st.rss_mb;
      st.rss_mb /= 1024.0;
    } else if (key == "Threads:") {
      in >> st.threads;
    }
    in.ignore(1 << 12, '\n');
  }
  return st;
}

}  // namespace perfbench
