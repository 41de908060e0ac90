// The served path: a Release spanexd over a persisted segment with its
// trigram index, driven by an open-loop load generator through
// server::Client (one process, at most nproc threads and connections).
#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine_run.h"
#include "server/client.h"

namespace perfbench {

/// spanexd flags the benchmark serves with (besides socket and corpus).
/// One extraction worker: with the server's I/O thread and the load
/// generator's sender and receivers, a served run stays within 4 CPUs.
struct ServerConfig {
  size_t threads = 1;    // extraction pool width
  size_t queue = 256;    // admission queue capacity
  size_t inflight = 64;  // per-connection in-flight cap
};

/// A spanexd child process. Stop() drains it (SIGTERM) and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::string& spanexd, const std::string& socket,
             const std::string& segment, const ServerConfig& config,
             std::string* error);
  /// Graceful drain; SIGKILL if it has not exited within a few seconds.
  void Stop();
  /// spanexd's VmHWM in MB (0 once stopped).
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
};

/// How long each step of IngestSegment took.
struct IngestTimes {
  uint64_t write_ns = 0;  // durable segment write
  uint64_t open_ns = 0;   // SegmentStore::Open of the written segment
  uint64_t index_ns = 0;  // NgramIndex::Build + Save
};

/// Writes the segment (durable write: temp file, fsync, rename, directory
/// fsync — the shipped policy) and builds + saves its trigram index.
bool IngestSegment(const spanners::engine::Corpus& corpus,
                   const std::string& segment, IngestTimes* times,
                   std::string* error);

/// The served request mix: one `extract_batch` per this many `extract`s,
/// and the register → extract → unregister churn rate.
constexpr size_t kBatchEvery = 80;
constexpr double kChurnPerSecond = 2;

/// One open-loop phase: single-document `extract` requests at `rate`/s
/// with the batch share above, for `seconds`; optionally the churn.
struct LoadSpec {
  double rate = 800;
  double seconds = 1;
  bool churn = true;
};

struct LoadResult {
  std::vector<double> extract_us;   // from scheduled send to final line
  std::vector<double> batch_ms;     // from scheduled send to final line
  std::vector<double> lateness_us;  // actual send - scheduled send
  std::vector<double> extract_us_first_half, extract_us_second_half;
  uint64_t attempted = 0;
  uint64_t failed = 0;     // errors, refusals, timeouts, lost responses
  uint64_t refused = 0;    // Unavailable answers among `failed`
  uint64_t mismatches = 0; // rows differing from the in-process answer
  uint64_t churn_ops = 0;
  double wall_s = 0;  // first scheduled send to last actual send
  std::string first_error;
};

/// Drives a running spanexd. Connections: extraction session, batch
/// session, churn session; threads: the sender (caller), one receiver
/// per pipelined connection, the churn loop.
class LoadGenerator {
 public:
  /// Both sessions register `job`'s patterns; `job` is their in-process
  /// twin (the expected rows). `pool` lists the corpus documents extract
  /// requests cycle through.
  LoadGenerator(const std::string& socket, const CompiledJob& job,
                const std::vector<spanners::Document>& corpus,
                const std::vector<size_t>& pool);

  /// Connects the sessions and registers their plans.
  bool Connect(std::string* error);
  /// One `extract` of pool entry 0, closed loop (the first result).
  bool FirstResult(std::string* error);
  LoadResult Run(const LoadSpec& spec);
  /// Round trip of one `extract` request (pool entry `k`), closed loop.
  double ExtractRttUs(size_t k, bool* ok);
  double PingRttUs(bool* ok);
  /// `extract` RTT measured while an `extract_batch` executes.
  double ExtractRttDuringBatchUs(size_t k, bool* ok);
  void set_expected_batch_digest(uint64_t d) { batch_digest_ = d; }

 private:
  std::string socket_;
  const CompiledJob& job_;
  const std::vector<spanners::Document>& corpus_;
  std::vector<size_t> pool_;
  std::vector<std::string> request_tail_;  // per pool entry
  std::vector<uint64_t> expected_digest_;  // per pool entry
  uint64_t batch_digest_ = 0;
  spanners::server::Client extract_conn_, batch_conn_, churn_conn_;
  uint64_t churn_seq_ = 0;
};

/// One max_rps probe: whether `rate` (same mix) keeps the extract p99
/// within `limit_us` with no failed or refused request and no growing
/// backlog (the later half of the probe no slower than twice the earlier).
/// Answers that differ from the in-process rows are added to *mismatches.
bool ProbePasses(LoadGenerator* gen, double rate, double seconds,
                 double limit_us, uint64_t* mismatches);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
