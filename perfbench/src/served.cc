#include "served.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "engine/plan.h"
#include "server/json.h"
#include "server/protocol.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"

namespace perfbench {

namespace eng = spanners::engine;
using spanners::Document;
using spanners::Result;
using spanners::server::Client;
using spanners::server::JsonValue;

// ---- spanexd process ----------------------------------------------------

bool ServerProcess::Start(const std::string& spanexd,
                          const std::string& socket,
                          const std::string& segment,
                          const ServerConfig& config, std::string* error) {
  Stop();
  ::unlink(socket.c_str());
  std::vector<std::string> args = {
      spanexd,          "--socket", socket,
      "--corpus",       segment,    "--index",
      "-j",             std::to_string(config.threads),
      "--queue",        std::to_string(config.queue),
      "--inflight",     std::to_string(config.inflight)};
  const std::string log = segment + ".spanexd.log";
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, however it exits.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  return true;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  return pid_ > 0 ? perfbench::PeakRssMb(pid_) : 0;
}

bool IngestSegment(const eng::Corpus& corpus, const std::string& segment,
                   IngestTimes* times, std::string* error) {
  const uint64_t t0 = NowNs();
  spanners::Status st = spanners::storage::SegmentStore::Write(corpus, segment);
  const uint64_t t1 = NowNs();
  if (!st.ok()) {
    *error = "segment write: " + st.ToString();
    return false;
  }
  auto store = spanners::storage::SegmentStore::Open(segment);
  const uint64_t t2 = NowNs();
  if (!store.ok()) {
    *error = "segment open: " + store.status().ToString();
    return false;
  }
  const spanners::storage::NgramIndex index =
      spanners::storage::NgramIndex::Build(store.ValueOrDie());
  st = index.Save(spanners::storage::IndexPathFor(segment));
  const uint64_t t3 = NowNs();
  if (!st.ok()) {
    *error = "index save: " + st.ToString();
    return false;
  }
  times->write_ns = t1 - t0;
  times->open_ns = t2 - t1;
  times->index_ns = t3 - t2;
  return true;
}

// ---- load generator -----------------------------------------------------

namespace {

constexpr int64_t kFirstRawId = 1'000'000;

spanners::server::ConnectOptions ConnOptions() {
  spanners::server::ConnectOptions o;
  o.connect_timeout_ms = 2'000;
  o.io_timeout_ms = 5'000;
  return o;
}

bool IsUnavailable(const JsonValue& resp) {
  const JsonValue* err = resp.Find("error");
  return err != nullptr && err->StringOr("code", "") == "Unavailable";
}

// Reads the responses of `expected` pipelined requests (ids first_id ..
// first_id + expected - 1) off `conn`, digesting each request's rows.
struct ReceiverState {
  std::vector<RowDigest> digests;
  std::unique_ptr<std::atomic<uint64_t>[]> done_ns;
  std::vector<int8_t> outcome;  // 0 pending, 1 ok, 2 error, 3 refused
  size_t received = 0;
  std::string first_error;
};

void Receive(Client* conn, int64_t first_id, size_t expected,
             ReceiverState* st) {
  st->digests.assign(expected, RowDigest());
  st->outcome.assign(expected, 0);
  while (st->received < expected) {
    auto resp = conn->ReadResponseLine();
    if (!resp.ok()) {
      if (st->first_error.empty()) st->first_error = resp.status().ToString();
      return;
    }
    const JsonValue& v = resp.ValueOrDie();
    const int64_t k = v.IntOr("id", -1) - first_id;
    if (k < 0 || static_cast<size_t>(k) >= expected) continue;
    if (const JsonValue* rows = v.Find("rows")) {
      for (const JsonValue& row : rows->items())
        st->digests[k].AddRow(row.AsString());
      continue;
    }
    st->done_ns[k].store(NowNs(), std::memory_order_relaxed);
    if (v.BoolOr("ok", false)) {
      st->outcome[k] = 1;
    } else {
      st->outcome[k] = IsUnavailable(v) ? 3 : 2;
      if (st->first_error.empty()) {
        std::string line;
        spanners::server::WriteJson(v, &line);
        st->first_error = line;
      }
    }
    ++st->received;
  }
}

void SleepUntil(uint64_t t_ns) {
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= t_ns) return;
    const uint64_t left = t_ns - now;
    if (left > 300'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200'000));
    } else {
      std::this_thread::yield();
    }
  }
}

Result<JsonValue> ReadFinal(Client* conn, int64_t id, RowDigest* digest) {
  for (;;) {
    auto resp = conn->ReadResponseLine();
    if (!resp.ok()) return resp.status();
    const JsonValue& v = resp.ValueOrDie();
    if (v.IntOr("id", -1) != id) continue;
    if (const JsonValue* rows = v.Find("rows")) {
      if (digest != nullptr)
        for (const JsonValue& row : rows->items()) digest->AddRow(row.AsString());
      continue;
    }
    return resp;
  }
}

}  // namespace

LoadGenerator::LoadGenerator(const std::string& socket, const CompiledJob& job,
                             const std::vector<Document>& corpus,
                             const std::vector<size_t>& pool)
    : socket_(socket), job_(job), corpus_(corpus), pool_(pool) {
  DocScratch scratch;
  for (size_t idx : pool_) {
    std::string tail = ",\"doc\":";
    spanners::server::AppendJsonString(&tail, corpus_[idx].text());
    tail += ",\"doc_index\":" + std::to_string(idx) +
            ",\"format\":\"tsv\",\"header\":false}";
    request_tail_.push_back(std::move(tail));
    expected_digest_.push_back(
        ExtractDigest(job_, corpus_[idx], idx, &scratch));
  }
}

bool LoadGenerator::Connect(std::string* error) {
  spanners::server::RetryPolicy retry;
  retry.max_retries = 400;
  retry.base_backoff_ms = 2;
  retry.max_backoff_ms = 20;
  for (Client* c : {&extract_conn_, &batch_conn_, &churn_conn_}) {
    auto conn = Client::ConnectWithRetry(socket_, ConnOptions(), retry);
    if (!conn.ok()) {
      *error = "connect: " + conn.status().ToString();
      return false;
    }
    *c = std::move(conn).ValueOrDie();
  }
  for (Client* c : {&extract_conn_, &batch_conn_}) {
    for (const std::string& pattern : job_.job->patterns) {
      auto handle = c->Register(pattern);
      if (!handle.ok()) {
        *error = "register: " + handle.status().ToString();
        return false;
      }
    }
  }
  return true;
}

bool LoadGenerator::FirstResult(std::string* error) {
  bool ok = false;
  ExtractRttUs(0, &ok);
  if (!ok) *error = "first extract failed or differed from in-process rows";
  return ok;
}

double LoadGenerator::ExtractRttUs(size_t k, bool* ok) {
  static std::atomic<int64_t> next_id{kFirstRawId / 2};
  const int64_t id = next_id++;
  const size_t e = k % pool_.size();
  const uint64_t t0 = NowNs();
  RowDigest digest;
  *ok = extract_conn_
            .SendLine("{\"op\":\"extract\",\"id\":" + std::to_string(id) +
                      request_tail_[e])
            .ok();
  if (!*ok) return 0;
  auto resp = ReadFinal(&extract_conn_, id, &digest);
  const uint64_t t1 = NowNs();
  *ok = resp.ok() && resp.ValueOrDie().BoolOr("ok", false) &&
        digest.value() == expected_digest_[e];
  return static_cast<double>(t1 - t0) / 1e3;
}

double LoadGenerator::PingRttUs(bool* ok) {
  const uint64_t t0 = NowNs();
  *ok = extract_conn_.Ping().ok();
  return static_cast<double>(NowNs() - t0) / 1e3;
}

double LoadGenerator::ExtractRttDuringBatchUs(size_t k, bool* ok) {
  static std::atomic<int64_t> next_id{kFirstRawId / 4};
  const int64_t id = next_id++;
  if (!batch_conn_
           .SendLine("{\"op\":\"extract_batch\",\"id\":" + std::to_string(id) +
                     ",\"format\":\"tsv\",\"header\":false}")
           .ok()) {
    *ok = false;
    return 0;
  }
  // Let the executor pick the batch up before the extract arrives.
  std::this_thread::sleep_for(std::chrono::microseconds(500));
  const double rtt = ExtractRttUs(k, ok);
  RowDigest digest;
  auto resp = ReadFinal(&batch_conn_, id, &digest);
  *ok = *ok && resp.ok() && digest.value() == batch_digest_;
  return rtt;
}

LoadResult LoadGenerator::Run(const LoadSpec& spec) {
  static std::atomic<int64_t> next_id{kFirstRawId};
  LoadResult r;
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.rate * spec.seconds)));
  constexpr size_t every = kBatchEvery;
  // Batches ride on the extract slots i with i % every == every / 2.
  const size_t n_batches = n > every / 2 ? (n - every / 2 - 1) / every + 1 : 0;
  const int64_t ext_id0 = next_id.fetch_add(static_cast<int64_t>(n));
  const int64_t bat_id0 = next_id.fetch_add(static_cast<int64_t>(n_batches));

  ReceiverState ext, bat;
  ext.done_ns.reset(new std::atomic<uint64_t>[n]);
  bat.done_ns.reset(new std::atomic<uint64_t>[std::max<size_t>(1, n_batches)]);
  for (size_t i = 0; i < n; ++i) ext.done_ns[i].store(0);
  for (size_t i = 0; i < n_batches; ++i) bat.done_ns[i].store(0);
  std::vector<uint64_t> sched(n), sent(n, 0), bat_sched(n_batches, 0);

  std::thread ext_rx(Receive, &extract_conn_, ext_id0, n, &ext);
  std::thread bat_rx;
  if (n_batches > 0) bat_rx = std::thread(Receive, &batch_conn_, bat_id0,
                                          n_batches, &bat);

  // Churn: register a fresh pattern, extract one document under it,
  // unregister — the only writes to the server's PlanCache.
  std::atomic<bool> stop_churn{false};
  std::atomic<uint64_t> churn_ops{0}, churn_failed{0};
  std::string churn_error;
  std::thread churn;
  if (spec.churn) {
    churn = std::thread([&] {
      const uint64_t gap = static_cast<uint64_t>(1e9 / kChurnPerSecond);
      uint64_t next = NowNs() + gap / 2;
      DocScratch scratch;
      while (!stop_churn.load()) {
        SleepUntil(next);
        next += gap;
        if (stop_churn.load()) break;
        const std::string pattern = ChurnPattern(churn_seq_++);
        const size_t e = churn_seq_ % pool_.size();
        const Document& doc = corpus_[pool_[e]];
        CompiledJob solo;
        solo.job = job_.job;
        solo.plans.push_back(std::make_shared<const eng::ExtractionPlan>(
            eng::ExtractionPlan::Compile(pattern).ValueOrDie()));
        const uint64_t want = ExtractDigest(solo, doc, pool_[e], &scratch);
        RowDigest got;
        bool ok = false;
        auto handle = churn_conn_.Register(pattern);
        if (handle.ok()) {
          auto res = churn_conn_.Extract(
              doc.text(), pool_[e], eng::OutputFormat::kTsv, false,
              [&](const std::string& row) { got.AddRow(row); });
          ok = res.ok() && got.value() == want &&
               churn_conn_.Unregister(handle.ValueOrDie()).ok();
        }
        churn_ops.fetch_add(1);
        if (!ok) {
          churn_failed.fetch_add(1);
          if (churn_error.empty()) churn_error = "churn operation failed";
        }
      }
    });
  }

  const uint64_t t0 = NowNs() + 2'000'000;
  const double gap_ns = 1e9 / spec.rate;
  size_t b = 0;
  bool send_failed = false;
  for (size_t i = 0; i < n && !send_failed; ++i) {
    sched[i] = t0 + static_cast<uint64_t>(gap_ns * static_cast<double>(i));
    SleepUntil(sched[i]);
    sent[i] = NowNs();
    const size_t e = i % pool_.size();
    send_failed = !extract_conn_
                       .SendLine("{\"op\":\"extract\",\"id\":" +
                                 std::to_string(ext_id0 + int64_t(i)) +
                                 request_tail_[e])
                       .ok();
    if (b < n_batches && i % every == every / 2) {
      bat_sched[b] = sched[i];
      send_failed = send_failed ||
                    !batch_conn_
                         .SendLine("{\"op\":\"extract_batch\",\"id\":" +
                                   std::to_string(bat_id0 + int64_t(b)) +
                                   ",\"format\":\"tsv\",\"header\":false}")
                         .ok();
      ++b;
    }
  }
  const uint64_t send_end = NowNs();
  ext_rx.join();
  if (bat_rx.joinable()) bat_rx.join();
  stop_churn.store(true);
  if (churn.joinable()) churn.join();

  r.wall_s = Seconds(send_end - t0);
  r.churn_ops = churn_ops.load();
  r.attempted = n + n_batches + r.churn_ops;
  r.failed = churn_failed.load();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t done = ext.done_ns[i].load();
    if (sent[i] != 0)
      r.lateness_us.push_back(static_cast<double>(sent[i] - sched[i]) / 1e3);
    if (ext.outcome[i] == 1) {
      const double us = static_cast<double>(done - sched[i]) / 1e3;
      r.extract_us.push_back(us);
      (i < n / 2 ? r.extract_us_first_half : r.extract_us_second_half)
          .push_back(us);
      if (ext.digests[i].value() != expected_digest_[i % pool_.size()])
        ++r.mismatches;
    } else {
      ++r.failed;
      if (ext.outcome[i] == 3) ++r.refused;
    }
  }
  for (size_t j = 0; j < n_batches; ++j) {
    if (bat.outcome[j] == 1) {
      r.batch_ms.push_back(
          static_cast<double>(bat.done_ns[j].load() - bat_sched[j]) / 1e6);
      if (bat.digests[j].value() != batch_digest_) ++r.mismatches;
    } else {
      ++r.failed;
      if (bat.outcome[j] == 3) ++r.refused;
    }
  }
  r.first_error = !ext.first_error.empty()   ? ext.first_error
                  : !bat.first_error.empty() ? bat.first_error
                                             : churn_error;
  return r;
}

bool ProbePasses(LoadGenerator* gen, double rate, double seconds,
                 double limit_us, uint64_t* mismatches) {
  LoadSpec spec;
  spec.rate = rate;
  spec.seconds = seconds;
  const LoadResult r = gen->Run(spec);
  *mismatches += r.mismatches;
  if (r.failed > 0 || r.mismatches > 0 || r.extract_us.empty()) return false;
  const bool growing = Median(r.extract_us_second_half) >
                       2 * Median(r.extract_us_first_half) + 1000;
  return Quantile(r.extract_us, 0.99) <= limit_us && !growing;
}

}  // namespace perfbench
