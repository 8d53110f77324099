// Drives the real dlner_serve binary over localhost TCP: process start and
// stop, a blocking admin connection, and the open-loop load generator.
//
// The generator uses two threads (the caller sends on schedule, one
// receiver reads every connection through epoll) and never holds more
// connections than the configured persistent ones plus churn slots, which
// workloads.json keeps within nproc.
#ifndef PERFBENCH_SERVE_CLIENT_H_
#define PERFBENCH_SERVE_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "perfbench/fixture.h"
#include "perfbench/openloop.h"
#include "stream/entity_memory.h"
#include "text/types.h"

namespace perfbench {

/// A dlner_serve child process. The destructor kills and reaps it if Stop()
/// was not reached.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `bin --model model` on an ephemeral port and waits for its
  /// "listening on" line. stdout/stderr go to `log_prefix`.{out,err}.
  bool Start(const std::string& bin, const std::string& model,
             const std::string& log_prefix, std::string* error);
  /// Sends {"cmd":"shutdown"} and waits for the exit; kills after 10 s.
  /// Returns true when the server exited cleanly on its own.
  bool Stop();

  int pid() const { return pid_; }
  int port() const { return port_; }

 private:
  int pid_ = -1;
  int port_ = 0;
};

/// One blocking line-oriented client connection.
class LineConn {
 public:
  LineConn() = default;
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool Connect(int port);
  bool Send(const std::string& line);  // appends '\n'
  /// Reads one line; false on EOF, error or `timeout_ms`.
  bool ReadLine(std::string* line, int timeout_ms);

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Parsed Prometheus text exposition: plain samples plus the server's
/// lifetime histograms rebuilt as bucket snapshots.
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, dlner::obs::HistogramSnapshot> hists;

  double Value(const std::string& name) const;
  dlner::obs::HistogramSnapshot Hist(const std::string& name) const;
};
Scrape ParseScrape(const std::string& exposition);
/// `later` minus `earlier`, bucket by bucket.
dlner::obs::HistogramSnapshot HistDelta(
    const dlner::obs::HistogramSnapshot& later,
    const dlner::obs::HistogramSnapshot& earlier);

/// The expected answer to every sentence of the workload's pool.
struct Answers {
  const std::vector<Tokens>* sentences = nullptr;
  std::vector<std::vector<dlner::text::Span>> spans;
  std::vector<std::string> payloads;  // serve::TagPayload of each
};

/// A tagging request line (no trailing newline).
std::string RequestLine(std::int64_t id, const Tokens& tokens, bool doc);

/// One scheduled request of a phase.
struct Item {
  std::int64_t due_ns = 0;  // offset from the phase start
  int sentence = 0;         // index into the pool
  bool doc = false;         // "doc":true request
  bool churn = false;       // sent on a short-lived connection
};

class LoadGen {
 public:
  LoadGen(int port, int persistent, int churn_slots, const Answers* answers);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool ok() const { return ok_; }

  /// Sends `items` on schedule and waits (up to a drain timeout) for the
  /// answers. `tick`, when set, runs on the sending thread between sends
  /// with the offset from the phase start (scrapes, reloads). A `window`
  /// above 0 makes the phase closed-loop instead: the due times are
  /// ignored, and each item is sent as soon as fewer than `window`
  /// requests are unanswered.
  PhaseTally RunPhase(const std::vector<Item>& items,
                      const std::function<void(std::int64_t)>& tick = {},
                      int window = 0);

  /// Sends an admin command (a JSON object body without braces or id) on
  /// connection 0 and returns the id it went out with.
  std::int64_t SendAdmin(const std::string& body);
  /// Waits for the answer to an admin id; `*rtt_ms` is its round trip.
  bool AwaitAdmin(std::int64_t id, std::string* line, double* rtt_ms,
                  int timeout_ms = 10'000);
  /// {"cmd":"metrics"}, parsed.
  bool ScrapeMetrics(Scrape* out);

  /// Connections opened for churn, and churn requests that found every
  /// churn slot busy and went out on a persistent connection instead.
  std::int64_t churn_opened() const { return churn_opened_; }
  std::int64_t churn_fallback() const { return churn_fallback_; }

 private:
  struct Conn {
    int fd = -1;
    bool churn = false;
    std::string buf;
  };
  struct State {
    std::int64_t due_ns = 0;
    std::int64_t recv_ns = 0;
    std::uint64_t span_id = 0;
    int sentence = 0;
    int doc_slot = -1;
    bool doc = false;
    bool sent = false;
    enum { kPending, kOk, kWrong, kRefused, kFailed } status = kPending;
  };

  void ReceiveLoop();
  void HandleLine(const std::string& line, std::int64_t now);
  bool Judge(State* st, const std::string& line, std::int64_t id);
  int OpenConn(bool churn);
  void CloseConn(int fd);

  const int port_;
  const int persistent_;
  const int churn_slots_;
  const Answers* answers_;
  bool ok_ = true;
  int epfd_ = -1;
  std::vector<int> persistent_fds_;
  std::size_t rr_ = 0;
  std::int64_t churn_opened_ = 0;
  std::int64_t churn_fallback_ = 0;
  std::int64_t next_admin_ = 0;

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::unordered_map<int, Conn> conns_;
  int churn_open_ = 0;
  std::vector<char> dead_;  // per persistent connection
  std::uint64_t phase_span_ = 0;
  std::vector<State> states_;
  std::int64_t base_id_ = 1;
  std::int64_t answered_ = 0;
  std::vector<dlner::stream::EntityMemory> doc_memory_;
  std::map<std::int64_t, std::pair<std::string, std::int64_t>> admin_;
  std::map<std::int64_t, std::int64_t> admin_sent_;
  std::atomic<bool> stop_{false};
  std::thread receiver_;  // declared last: uses everything above
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_CLIENT_H_
