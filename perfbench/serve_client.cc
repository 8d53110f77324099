#include "perfbench/serve_client.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "serve/protocol.h"

namespace perfbench {

using dlner::obs::HistogramSnapshot;

namespace {

constexpr std::int64_t kAdminBase = std::int64_t{1} << 40;
constexpr std::int64_t kDrainTimeoutNs = 3'000'000'000;

int ConnectLocal(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The string value of "key" in a one-line JSON object, unescaped.
std::string JsonStringField(const std::string& line, const std::string& key) {
  const std::string open = "\"" + key + "\":\"";
  std::size_t i = line.find(open);
  if (i == std::string::npos) return {};
  std::string out;
  for (i += open.size(); i < line.size() && line[i] != '"'; ++i) {
    if (line[i] != '\\' || i + 1 >= line.size()) {
      out.push_back(line[i]);
      continue;
    }
    const char e = line[++i];
    switch (e) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'u':
        out.push_back(static_cast<char>(
            std::strtol(line.substr(i + 1, 4).c_str(), nullptr, 16)));
        i += 4;
        break;
      default: out.push_back(e);
    }
  }
  return out;
}

void FillRange(HistogramSnapshot* h) {
  int first = -1, last = -1;
  for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    if (h->buckets[b] == 0) continue;
    if (first < 0) first = b;
    last = b;
  }
  h->min = first <= 0 ? 0.0 : std::ldexp(1.0, first - 1);
  h->max = last <= 0 ? 0.0 : std::ldexp(1.0, last) - 1.0;
}

}  // namespace

// --- ServerProcess -------------------------------------------------------

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

bool ServerProcess::Start(const std::string& bin, const std::string& model,
                          const std::string& log_prefix, std::string* error) {
  const std::string out_path = log_prefix + ".out";
  const std::string err_path = log_prefix + ".err";
  // Truncated before the fork, so the poll below never reads the "listening
  // on" line of an earlier server.
  const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0 || err < 0) {
    *error = "cannot create " + log_prefix + ".{out,err}";
    return false;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execl(bin.c_str(), "dlner_serve", "--model", model.c_str(), "--port",
            "0", "--metrics-port", "0", static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out);
  ::close(err);
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  pid_ = pid;
  const std::string marker = "listening on 127.0.0.1:";
  const std::int64_t give_up = NowNs() + 30'000'000'000;
  while (NowNs() < give_up) {
    const std::string out = ReadFile(out_path);
    const std::size_t at = out.find(marker);
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      port_ = std::atoi(out.c_str() + at + marker.size());
      return port_ > 0;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "dlner_serve exited during start: " + ReadFile(err_path);
      return false;
    }
    ::usleep(200);
  }
  *error = "dlner_serve did not start listening";
  return false;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return false;
  {
    LineConn c;
    if (c.Connect(port_)) c.Send("{\"cmd\":\"shutdown\"}");
  }
  int status = 0;
  const std::int64_t give_up = NowNs() + 10'000'000'000;
  while (NowNs() < give_up) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    ::usleep(2000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return false;
}

// --- LineConn ------------------------------------------------------------

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineConn::Connect(int port) {
  fd_ = ConnectLocal(port);
  return fd_ >= 0;
}

bool LineConn::Send(const std::string& line) {
  return fd_ >= 0 && SendAll(fd_, line + "\n");
}

bool LineConn::ReadLine(std::string* line, int timeout_ms) {
  const std::int64_t give_up = NowNs() + std::int64_t{timeout_ms} * 1'000'000;
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    const std::int64_t left_ms = (give_up - NowNs()) / 1'000'000;
    if (left_ms <= 0) return false;
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

// --- Scrape --------------------------------------------------------------

double Scrape::Value(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

HistogramSnapshot Scrape::Hist(const std::string& name) const {
  const auto it = hists.find(name);
  return it == hists.end() ? HistogramSnapshot{} : it->second;
}

Scrape ParseScrape(const std::string& text) {
  Scrape s;
  std::map<std::string, std::map<double, double>> cum;  // base -> le -> n
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string name = line.substr(0, sp);
    const double value = std::strtod(line.c_str() + sp + 1, nullptr);
    const std::size_t b = name.find("_bucket{le=\"");
    if (b == std::string::npos) {
      s.values[name] = value;
      continue;
    }
    const std::string le = name.substr(b + 12, name.size() - b - 14);
    if (le != "+Inf") cum[name.substr(0, b)][std::strtod(le.c_str(), nullptr)] = value;
  }
  for (const auto& [base, buckets] : cum) {
    HistogramSnapshot h;
    double prev = 0.0;
    for (const auto& [le, n] : buckets) {
      const int idx = le <= 0.0 ? 0 : static_cast<int>(std::llround(std::log2(le + 1.0)));
      if (idx >= 0 && idx < HistogramSnapshot::kBuckets) {
        h.buckets[idx] = static_cast<std::int64_t>(n - prev);
      }
      prev = n;
    }
    h.count = static_cast<std::int64_t>(s.Value(base + "_count"));
    h.sum = s.Value(base + "_sum");
    FillRange(&h);
    s.hists[base] = h;
  }
  return s;
}

HistogramSnapshot HistDelta(const HistogramSnapshot& later,
                            const HistogramSnapshot& earlier) {
  HistogramSnapshot d;
  d.count = later.count - earlier.count;
  d.sum = later.sum - earlier.sum;
  for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    d.buckets[b] = later.buckets[b] - earlier.buckets[b];
  }
  FillRange(&d);
  return d;
}

// --- LoadGen -------------------------------------------------------------

std::string RequestLine(std::int64_t id, const Tokens& tokens, bool doc) {
  std::string l = "{\"id\":" + std::to_string(id);
  if (doc) l += ",\"doc\":true";
  l += ",\"tokens\":[";
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    if (k > 0) l.push_back(',');
    l += dlner::serve::JsonQuote(tokens[k]);
  }
  return l + "]}";
}

LoadGen::LoadGen(int port, int persistent, int churn_slots,
                 const Answers* answers)
    : port_(port),
      persistent_(persistent),
      churn_slots_(churn_slots),
      answers_(answers) {
  epfd_ = ::epoll_create1(0);
  doc_memory_.resize(static_cast<std::size_t>(persistent));
  for (int i = 0; i < persistent; ++i) {
    const int fd = OpenConn(false);
    if (fd < 0) ok_ = false;
    persistent_fds_.push_back(fd);
    dead_.push_back(fd < 0 ? 1 : 0);
  }
  receiver_ = std::thread([this] { ReceiveLoop(); });
}

LoadGen::~LoadGen() {
  stop_.store(true);
  receiver_.join();
  for (auto& [fd, conn] : conns_) ::close(fd);
  ::close(epfd_);
}

int LoadGen::OpenConn(bool churn) {
  const int fd = ConnectLocal(port_);
  if (fd < 0) return -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Conn& c = conns_[fd];
    c.fd = fd;
    c.churn = churn;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  return fd;
}

// Caller holds mu_.
void LoadGen::CloseConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second.churn) --churn_open_;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

void LoadGen::ReceiveLoop() {
  epoll_event evs[16];
  std::vector<char> buf(1 << 16);
  while (!stop_.load()) {
    const int n = ::epoll_wait(epfd_, evs, 16, 20);
    for (int e = 0; e < n; ++e) {
      const int fd = evs[e].data.fd;
      const ssize_t got = ::recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      const std::int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if (got <= 0) {
        if (!conn.churn) {
          for (std::size_t i = 0; i < persistent_fds_.size(); ++i) {
            if (persistent_fds_[i] == fd) dead_[i] = 1;
          }
        }
        CloseConn(fd);
        continue;
      }
      conn.buf.append(buf.data(), static_cast<std::size_t>(got));
      std::size_t nl;
      bool closed = false;
      while (!closed && (nl = conn.buf.find('\n')) != std::string::npos) {
        const std::string line = conn.buf.substr(0, nl);
        conn.buf.erase(0, nl + 1);
        HandleLine(line, now);
        if (conn.churn) {  // one request per short-lived connection
          CloseConn(fd);
          closed = true;
        }
      }
    }
  }
}

// Caller holds mu_.
void LoadGen::HandleLine(const std::string& line, std::int64_t now) {
  static const std::string kIdPrefix = "{\"id\":";
  if (line.compare(0, kIdPrefix.size(), kIdPrefix) != 0) return;
  const std::int64_t id = std::strtoll(line.c_str() + kIdPrefix.size(),
                                       nullptr, 10);
  if (id >= kAdminBase) {
    admin_[id] = {line, now};
    cv_.notify_all();
    return;
  }
  const std::int64_t idx = id - base_id_;
  if (idx < 0 || idx >= static_cast<std::int64_t>(states_.size())) return;
  State& st = states_[static_cast<std::size_t>(idx)];
  if (!st.sent || st.status != State::kPending) return;
  st.recv_ns = now;
  Spans& spans = Spans::Get();
  const std::int64_t judge_start = spans.enabled() ? NowNs() : 0;
  Judge(&st, line, id);
  if (spans.enabled()) {
    spans.Record("loadgen", "loadgen/validate", judge_start, NowNs(),
                 st.span_id, static_cast<std::uint64_t>(id));
  }
  spans.RecordWithId(st.span_id, "loadgen", "loadgen/request", st.due_ns,
                     now, phase_span_, static_cast<std::uint64_t>(id));
  ++answered_;
  cv_.notify_all();
}

// Caller holds mu_.
bool LoadGen::Judge(State* st, const std::string& line, std::int64_t id) {
  const std::size_t err = line.find("\"error\":{\"code\":");
  if (err != std::string::npos) {
    const int code = std::atoi(line.c_str() + err + 16);
    st->status = (code == dlner::serve::kQueueFull ||
                  code == dlner::serve::kShuttingDown)
                     ? State::kRefused
                     : State::kFailed;
    return false;
  }
  const Tokens& tokens = (*answers_->sentences)[static_cast<std::size_t>(st->sentence)];
  dlner::serve::Request req;
  req.has_id = true;
  req.id = id;
  req.doc = st->doc;
  std::string expected;
  if (st->doc) {
    auto& memory = doc_memory_[static_cast<std::size_t>(st->doc_slot)];
    std::vector<dlner::text::Span> spans =
        answers_->spans[static_cast<std::size_t>(st->sentence)];
    memory.Apply(tokens, &spans);
    memory.Observe(tokens, spans);
    expected = dlner::serve::TagResponse(
        req, false, dlner::serve::TagPayload(tokens, spans));
  } else {
    const bool cached = line.find("\"cached\":true") != std::string::npos;
    expected = dlner::serve::TagResponse(
        req, cached, answers_->payloads[static_cast<std::size_t>(st->sentence)]);
  }
  st->status = line == expected ? State::kOk : State::kWrong;
  return st->status == State::kOk;
}

PhaseTally LoadGen::RunPhase(const std::vector<Item>& items,
                             const std::function<void(std::int64_t)>& tick,
                             int window) {
  PhaseTally t;
  if (items.empty()) return t;
  Spans& spans = Spans::Get();
  std::vector<std::string> lines(items.size());
  std::int64_t base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base = base_id_ + static_cast<std::int64_t>(states_.size());
    base_id_ = base;
    states_.assign(items.size(), State{});
    answered_ = 0;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    lines[i] = RequestLine(base + static_cast<std::int64_t>(i),
                           (*answers_->sentences)[static_cast<std::size_t>(
                               items[i].sentence)],
                           items[i].doc) +
               "\n";
  }
  const std::int64_t start = NowNs() + 2'000'000;
  std::int64_t window_end = start + items.back().due_ns;
  const std::uint64_t phase_span = spans.enabled() ? spans.NewId() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_span_ = phase_span;
  }
  std::int64_t sent = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    std::int64_t due = start + item.due_ns;
    if (window > 0) {
      // Closed loop: due once an answer frees a slot of the window.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::nanoseconds(kDrainTimeoutNs),
                   [&] { return sent - answered_ < window; });
      due = std::max(start, NowNs());
    }
    if (tick) tick(due - start);
    SleepUntilNs(due);
    const std::int64_t send_ns = NowNs();
    t.late_us.push_back(static_cast<double>(send_ns - due) / 1e3);
    int fd = -1, slot = -1;
    if (item.churn) {
      bool reserved = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (churn_open_ < churn_slots_) {
          ++churn_open_;
          reserved = true;
        }
      }
      if (reserved) {
        fd = OpenConn(true);
        if (fd < 0) {
          std::lock_guard<std::mutex> lock(mu_);
          --churn_open_;
        } else {
          ++churn_opened_;
        }
      } else {
        ++churn_fallback_;
      }
    }
    const std::uint64_t span_id = spans.enabled() ? spans.NewId() : 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int k = 0; k < persistent_ && fd < 0; ++k) {
        const std::size_t c = rr_++ % persistent_fds_.size();
        if (!dead_[c]) {
          fd = persistent_fds_[c];
          slot = static_cast<int>(c);
        }
      }
      State& st = states_[i];
      st.due_ns = due;
      st.sentence = item.sentence;
      st.doc = item.doc;
      st.doc_slot = slot;
      st.span_id = span_id;
      st.sent = fd >= 0;
    }
    if (fd < 0) continue;
    const bool ok = SendAll(fd, lines[i]);
    spans.Record("loadgen", "loadgen/send", send_ns, NowNs(), span_id,
                 static_cast<std::uint64_t>(base) + i);
    if (!ok) {
      std::lock_guard<std::mutex> lock(mu_);
      states_[i].sent = false;
      if (slot >= 0) dead_[static_cast<std::size_t>(slot)] = 1;
      continue;
    }
    ++sent;
  }
  if (window > 0) window_end = NowNs();
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(window_end + kDrainTimeoutNs - NowNs());
    cv_.wait_until(lock, deadline, [&] { return answered_ >= sent; });
    std::int64_t last = start + items.front().due_ns;
    for (const State& st : states_) {
      ++t.attempted;
      if (!st.sent) {
        ++t.unsent;
        continue;
      }
      if (st.status == State::kPending || st.recv_ns > window_end) {
        ++t.backlog_at_end;
      }
      switch (st.status) {
        case State::kPending: ++t.unanswered; break;
        case State::kOk:
          ++t.ok;
          t.lat_us.push_back(static_cast<double>(st.recv_ns - st.due_ns) / 1e3);
          break;
        case State::kWrong: ++t.wrong; break;
        case State::kRefused: ++t.refused; break;
        case State::kFailed: ++t.failed; break;
      }
      if (st.status != State::kPending) last = std::max(last, st.recv_ns);
    }
    t.span_s = static_cast<double>(last - (start + items.front().due_ns)) / 1e9;
    // Answers that arrive after this point belong to no phase.
    base_id_ += static_cast<std::int64_t>(states_.size());
    states_.clear();
  }
  spans.RecordWithId(phase_span, "serve", "serve/phase", start, NowNs(), 0, 0);
  return t;
}

std::int64_t LoadGen::SendAdmin(const std::string& body) {
  const std::int64_t id = kAdminBase + next_admin_++;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_[0]) return -1;
    admin_sent_[id] = NowNs();
  }
  if (!SendAll(persistent_fds_[0],
               "{\"id\":" + std::to_string(id) + "," + body + "}\n")) {
    return -1;
  }
  return id;
}

bool LoadGen::AwaitAdmin(std::int64_t id, std::string* line, double* rtt_ms,
                         int timeout_ms) {
  if (id < 0) return false;
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [&] { return admin_.count(id) > 0; })) {
    return false;
  }
  const auto& [text, recv_ns] = admin_[id];
  if (line != nullptr) *line = text;
  if (rtt_ms != nullptr) {
    *rtt_ms = static_cast<double>(recv_ns - admin_sent_[id]) / 1e6;
  }
  admin_.erase(id);
  admin_sent_.erase(id);
  return true;
}

bool LoadGen::ScrapeMetrics(Scrape* out) {
  std::string line;
  if (!AwaitAdmin(SendAdmin("\"cmd\":\"metrics\""), &line, nullptr)) {
    return false;
  }
  *out = ParseScrape(JsonStringField(line, "metrics"));
  return !out->values.empty();
}

}  // namespace perfbench
