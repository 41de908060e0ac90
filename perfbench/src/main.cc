// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--spanexd PATH]
//   perfbench --self-test [--workdir DIR] [--spanexd PATH]
//
// Generates the workload's inputs from the seed, sets the engine up
// (several times; setup_s is the median), checks every output row against
// an independent path, measures for S seconds and prints a human-readable
// report followed by one JSON line:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ladder (see ladder.h). Exit status: 0 with every check passed, 1 when an
// output check failed (the JSON line still says which), 2 on usage or
// setup errors and on a build the benchmark refuses to measure.
#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch_extractor.h"
#include "engine/corpus.h"
#include "engine_run.h"
#include "inputs.h"
#include "ladder.h"
#include "served.h"
#include "util.h"

namespace perfbench {
namespace {

namespace eng = spanners::engine;

// served-mixed: the fixed offered rate and the latency limit max_rps is
// defined against (the batch share is kBatchEvery, served.h).
constexpr double kServedRate = 800;
constexpr double kLatencyLimitUs = 50'000;
// Generator lateness (p99) beyond which a served run is invalid: the
// generator, not the server, fell behind — its own delay would be more
// than a quarter of the extract p99 it measures (and above 1 ms).
constexpr double kMaxLatenessShare = 0.25;
constexpr double kMinLatenessLimitUs = 1'000;
// Set-ups (setup_s is their median): in process, one before measuring and
// this many more in every measurement round; served (a server start and a
// durable segment write each), this many before measuring.
constexpr size_t kSetupsPerRound = 3;
constexpr size_t kServedSetups = 5;

const std::vector<std::string> kEndToEnd = {
    "throughput_mb_s", "batch_ms_p50",  "batch_ms_p90", "extract_us_p50",
    "extract_us_p99",  "max_rps",       "setup_s",      "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "engine.plan.compile_us",
    "engine.multi_query.fleet_build_us",
    "engine.plan_cache.hit_ns",
    "common.aho_corasick.ns_per_byte",
    "engine.prefilter.ns_per_byte",
    "engine.prefilter.reject_ratio",
    "automata.lazy_dfa.ns_per_byte",
    "automata.lazy_dfa.reject_ratio",
    "automata.lazy_dfa.misses",
    "automata.eval.ns_per_byte",
    "automata.eval.us_per_doc",
    "automata.eval.mappings_per_doc",
    "automata.eval.useful_ratio",
    "query.ops_us_per_doc",
    "engine.format.ns_per_row",
    "engine.batch_extractor.parallel_efficiency",
    "storage.segment.write_mb_s",
    "storage.segment.open_ms",
    "storage.segment.materialize_ns_per_byte",
    "storage.ngram_index.build_mb_s",
    "storage.ngram_index.lookup_us",
    "storage.ngram_index.candidate_ratio",
    "server.ping_rtt_us",
    "server.overhead_us",
    "server.queue_wait_us",
    "trace.eval_share",
    "trace.gate_share",
    "trace.format_share",
    "trace.multi_query_share",
    "trace.batch_extractor_share",
    "trace.unattributed_share",
    "trace.overhead_ratio"};

struct Options {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  std::string workdir = ".bench_build/perfbench-run";
  std::string spanexd = PERFBENCH_SPANEXD;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  Report report;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n"
               "       perfbench --self-test [--workdir DIR]\n");
  return 2;
}

// ---- build provenance ------------------------------------------------------

bool CheckProvenance(std::string* why) {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  std::printf("build: type=%s compiler=\"%s\" flags=\"%s\" sanitize=%s "
              "faults=%s nproc=%zu\n",
              type.c_str(), PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
              sanitize.c_str(),
#ifdef SPANNERS_FAULTS_ENABLED
              "on",
#else
              "off",
#endif
              CpuCount());
  if (type != "Release") *why = "engine build type is " + type + ", not Release";
#ifndef NDEBUG
  *why = "assertions are enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
#endif
  if (sanitize != "OFF" && !sanitize.empty()) *why = "sanitizer build";
#ifdef SPANNERS_FAULTS_ENABLED
  *why = "fault-injection build (SPANNERS_FAULTS)";
#endif
  return why->empty();
}

// ---- shared steps ------------------------------------------------------------

// Reference digests and the ReferenceEval sample against one batch.
void CheckOutputs(const Engine& engine,
                  const std::vector<uint64_t>& batch_digests, Outcome* o) {
  const std::vector<uint64_t> ref = ReferenceDigests(engine);
  for (size_t j = 0; j < ref.size(); ++j)
    if (j >= batch_digests.size() || ref[j] != batch_digests[j])
      o->Fail("rows of job " + engine.jobs[j].job->name +
              " differ from the ungated single-thread reference");
  bool ok = true;
  size_t with_mappings = 0;
  std::string detail;
  const size_t n = ReferenceEvalSample(engine, &ok, &with_mappings, &detail);
  std::printf("check: reference digests over %zu jobs, ReferenceEval on %zu "
              "sampled (plan, document) pairs, %zu with mappings: %s\n",
              ref.size(), n, with_mappings, ok ? "ok" : detail.c_str());
  if (!ok) o->Fail("ReferenceEval sample: " + detail);
}

// Sets `engine` up `reps` times, appending each set-up's seconds to
// *samples.
void TimeSetups(const Inputs& in, const std::vector<std::string>& files,
                size_t reps, Engine* engine, std::vector<double>* samples,
                Outcome* o) {
  for (size_t r = 0; r < reps && o->correct; ++r) {
    std::string error;
    *engine = Engine();  // tearing the last one down is not set-up
    const uint64_t t0 = NowNs();
    const bool ok = Setup(in, files, engine, &error);
    samples->push_back(Seconds(NowNs() - t0));
    if (!ok) o->Fail("setup: " + error);
  }
}

// Single-document in-process extraction of document k of the first job.
void ExtractOne(const CompiledJob& cj, size_t k, DocScratch* scratch) {
  const size_t i = k % cj.corpus->size();
  ExtractDigest(cj, (*cj.corpus)[i], i, scratch);
}

// Frees what earlier phases left behind and restarts the peak-RSS count,
// so the next reading covers only what follows: the resident engine and
// corpus plus that phase's working memory.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Measurement is interleaved in rounds spread over the whole run, so every
// metric samples the same stretch of time and a transient slowdown of the
// machine touches all of them a little instead of one of them entirely.
// Latency quantiles are taken per round and reported as their median over
// the rounds, so one slow round does not set a run's tail.
constexpr size_t kRounds = 10;

// Workers of the timed batches and of the capacity phase: half the CPUs.
// On a shared host a batch over every CPU waits for whichever worker the
// host preempts, so its tail measures the neighbours rather than the
// engine; half leaves room for them and for the thread consuming rows.
size_t BatchWorkers() { return std::max<size_t>(1, CpuCount() / 2); }

// Median over rounds of each round's q-quantile.
double RoundQuantile(const std::vector<std::vector<double>>& rounds,
                     double q) {
  std::vector<double> per_round;
  for (const std::vector<double>& r : rounds)
    if (!r.empty()) per_round.push_back(Quantile(r, q));
  return Median(per_round);
}

size_t SampleCount(const std::vector<std::vector<double>>& rounds) {
  size_t n = 0;
  for (const std::vector<double>& r : rounds) n += r.size();
  return n;
}

// ---- dense-extract / sparse-fleet -------------------------------------------

void RunBatchWorkload(const Options& opt, const Inputs& in,
                      const std::vector<std::string>& files, Outcome* o) {
  Engine engine;
  std::vector<double> setup_s;
  TimeSetups(in, files, 1, &engine, &setup_s, o);
  if (!o->correct) return;
  const size_t threads = BatchWorkers();
  eng::BatchOptions bo;
  bo.num_threads = threads;
  eng::BatchExtractor extractor(bo);
  const BatchOutput first = RunBatch(&extractor, engine);
  CheckOutputs(engine, first.job_digests, o);
  std::printf("properties: %s\n",
              PropertiesJson(MeasureProperties(engine)).c_str());

  if (opt.trace) {
    LadderContext ctx;
    ctx.inputs = &in;
    ctx.engine = &engine;
    ctx.threads = threads;
    ctx.workdir = opt.workdir;
    ctx.spanexd = opt.spanexd;
    ctx.batch_digests = first.job_digests;
    std::string error;
    if (!RunLadder(ctx, opt.workdir + "/trace-" + in.workload + ".json",
                   &o->report, &error))
      o->Fail(error);
    o->attempted = 1;
    return;
  }

  const CompiledJob& cj = engine.jobs[0];
  const double round_ns = opt.seconds * 1e9 / kRounds;
  // Rates and peak RSS are read per round and reported as their median
  // (how many streamed shards are held at once depends on thread timing).
  std::vector<std::vector<double>> batch_ms(kRounds), extract_us(kRounds);
  std::vector<double> round_mb_s, round_rps, round_rss_mb;
  uint64_t bytes = 0, rows = 0, cap_done = 0;
  DocScratch scratch;
  std::vector<DocScratch> worker_scratch(threads);
  size_t next_doc = 0;
  const uint64_t hard_stop = NowNs() + 150'000'000'000ull;
  for (size_t round = 0; round < kRounds && NowNs() < hard_stop; ++round) {
    // Set-ups on a spare engine, gone before the round's memory count.
    {
      Engine spare;
      TimeSetups(in, files, kSetupsPerRound, &spare, &setup_s, o);
    }
    ResetPeakRss();
    // Closed-loop batches, one at a time over the workers; at least a
    // tenth of the 100-batch minimum per round.
    const uint64_t batch_end = NowNs() + static_cast<uint64_t>(round_ns * 0.6);
    const size_t min_batches = opt.self_test ? 1 : 10;
    uint64_t round_bytes = 0, busy_ns = 0;
    for (size_t n = 0; n < min_batches || NowNs() < batch_end; ++n) {
      const uint64_t t0 = NowNs();
      const BatchOutput b = RunBatch(&extractor, engine);
      const uint64_t dt = NowNs() - t0;
      ++o->attempted;
      if (b.job_digests != first.job_digests) {
        ++o->failed;
        o->Fail("batch rows changed between batches");
      }
      batch_ms[round].push_back(static_cast<double>(dt) / 1e6);
      round_bytes += b.bytes;
      rows += b.rows;
      busy_ns += dt;
    }
    bytes += round_bytes;
    round_mb_s.push_back(static_cast<double>(round_bytes) / 1e6 /
                         Seconds(busy_ns));
    // Single-document latency, one thread, documents round robin.
    const uint64_t lat_end = NowNs() + static_cast<uint64_t>(round_ns * 0.2);
    for (size_t n = 0; n < 100 || NowNs() < lat_end; ++n) {
      const uint64_t t0 = NowNs();
      ExtractOne(cj, next_doc++, &scratch);
      extract_us[round].push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    // Capacity: the workers extracting single documents, closed loop.
    std::vector<uint64_t> done(threads, 0);
    const uint64_t cap_start = NowNs();
    const uint64_t cap_end = cap_start + static_cast<uint64_t>(round_ns * 0.2);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t)
      workers.emplace_back([&, t] {
        for (size_t k = t; NowNs() < cap_end; k += threads) {
          ExtractOne(cj, k, &worker_scratch[t]);
          ++done[t];
        }
      });
    for (std::thread& w : workers) w.join();
    const uint64_t cap_ns = NowNs() - cap_start;
    uint64_t round_done = 0;
    for (uint64_t d : done) round_done += d;
    cap_done += round_done;
    round_rps.push_back(static_cast<double>(round_done) / Seconds(cap_ns));
    round_rss_mb.push_back(PeakRssMb());
  }

  const size_t batches = SampleCount(batch_ms);
  const size_t extracts = SampleCount(extract_us);
  Report& r = o->report;
  r.Set("throughput_mb_s", Median(round_mb_s), "MB/s", batches);
  r.Set("batch_ms_p50", RoundQuantile(batch_ms, 0.5), "ms", batches);
  r.Set("batch_ms_p90", RoundQuantile(batch_ms, 0.9), "ms", batches);
  r.Set("extract_us_p50", RoundQuantile(extract_us, 0.5), "us", extracts);
  r.Set("extract_us_p99", RoundQuantile(extract_us, 0.99), "us", extracts);
  r.Set("max_rps", Median(round_rps), "req/s", cap_done);
  r.Set("setup_s", Median(setup_s), "s", setup_s.size());
  r.Set("peak_rss_mb", Median(round_rss_mb), "MB", round_rss_mb.size());
  r.Set("error_rate",
        o->attempted ? static_cast<double>(o->failed) / o->attempted : 0,
        "ratio", o->attempted);
  std::printf("batches: %zu over %zu workers, %llu rows and %.3f MB each\n",
              batches, threads,
              static_cast<unsigned long long>(rows / std::max<size_t>(1, batches)),
              static_cast<double>(bytes) / 1e6 / std::max<size_t>(1, batches));
}

// ---- served-mixed -------------------------------------------------------------

void RunServed(const Options& opt, const Inputs& in,
               const std::vector<std::string>& files, Outcome* o) {
  // The in-process twin: expected rows of every served answer.
  Engine engine;
  std::string error;
  if (!Setup(in, files, &engine, &error)) {
    o->Fail("setup: " + error);
    return;
  }
  const size_t threads = CpuCount();
  // The in-process batch lives in its own scope: its pool is gone before
  // the load generator starts its threads.
  const BatchOutput first = [&] {
    eng::BatchOptions bo;
    bo.num_threads = threads;
    eng::BatchExtractor extractor(bo);
    return RunBatch(&extractor, engine);
  }();
  CheckOutputs(engine, first.job_digests, o);
  std::printf("properties: %s\n",
              PropertiesJson(MeasureProperties(engine)).c_str());
  const CompiledJob& job = engine.jobs[0];
  const std::string socket = opt.workdir + "/spanexd.sock";
  const std::string segment = opt.workdir + "/served.seg";
  const ServerConfig config;

  // Setup, several times: corpus load, durable segment write, index
  // build, spanexd start (segment + index open), plan registration, the
  // first served answer.
  ServerProcess server;
  std::unique_ptr<LoadGenerator> gen;
  std::vector<double> setup_s;
  const size_t reps = opt.trace ? 1 : kServedSetups;
  for (size_t r = 0; r < reps && o->correct; ++r) {
    gen.reset();
    server.Stop();
    gen = std::make_unique<LoadGenerator>(socket, job, engine.corpora[0].docs(),
                                          in.extract_pool);
    gen->set_expected_batch_digest(first.job_digests[0]);
    IngestTimes ingest;
    const uint64_t t0 = NowNs();
    auto corpus = eng::Corpus::FromFile(files[0], '\0');
    const bool ok = corpus.ok() &&
                    IngestSegment(corpus.ValueOrDie(), segment, &ingest,
                                  &error) &&
                    server.Start(opt.spanexd, socket, segment, config, &error) &&
                    gen->Connect(&error) && gen->FirstResult(&error);
    setup_s.push_back(Seconds(NowNs() - t0));
    if (!ok) o->Fail("served setup: " + error);
  }
  if (!o->correct) return;

  if (opt.trace) {
    LadderContext ctx;
    ctx.inputs = &in;
    ctx.engine = &engine;
    ctx.threads = threads;
    ctx.workdir = opt.workdir;
    ctx.spanexd = opt.spanexd;
    ctx.generator = gen.get();
    ctx.served_job = &job;
    ctx.batch_digests = first.job_digests;
    if (!RunLadder(ctx, opt.workdir + "/trace-" + in.workload + ".json",
                   &o->report, &error))
      o->Fail(error);
    o->attempted = 1;
    return;
  }

  LoadSpec fixed;
  fixed.rate = kServedRate;
  fixed.seconds = 0.5;
  gen->Run(fixed);  // warm-up, not counted

  // Rounds of the fixed-rate phase, each followed by one bisection step
  // of max_rps over [rate, 10 × rate] on a log scale (six steps leave a
  // bracket under 4% wide).
  constexpr size_t kServedRounds = 6;
  constexpr double kProbeSeconds = 3.0;
  // Long enough for the 100-batch minimum (outside the self-test).
  const double min_round_s =
      opt.self_test ? 0.5
                    : 101.0 * kBatchEvery / kServedRate / kServedRounds;
  fixed.seconds = std::max(
      min_round_s,
      (opt.seconds - kServedRounds * (kProbeSeconds + 0.3)) / kServedRounds);
  LoadResult all;
  double lo = kServedRate, hi = 10 * kServedRate;
  size_t probes = 0;
  std::string rounds;
  for (size_t round = 0; round < kServedRounds; ++round) {
    LoadResult r = gen->Run(fixed);
    char line[160];
    std::snprintf(line, sizeof(line),
                  " [extract p50 %.0f p99 %.0f us, batch p50 %.1f ms",
                  Quantile(r.extract_us, 0.5), Quantile(r.extract_us, 0.99),
                  Quantile(r.batch_ms, 0.5));
    rounds += line;
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.refused += r.refused;
    all.mismatches += r.mismatches;
    all.churn_ops += r.churn_ops;
    all.wall_s += r.wall_s;
    all.extract_us.insert(all.extract_us.end(), r.extract_us.begin(),
                          r.extract_us.end());
    all.batch_ms.insert(all.batch_ms.end(), r.batch_ms.begin(),
                        r.batch_ms.end());
    all.lateness_us.insert(all.lateness_us.end(), r.lateness_us.begin(),
                           r.lateness_us.end());
    if (all.first_error.empty()) all.first_error = r.first_error;

    const double mid = std::sqrt(lo * hi);
    const bool pass = ProbePasses(gen.get(), mid, kProbeSeconds,
                                  kLatencyLimitUs, &all.mismatches);
    (pass ? lo : hi) = mid;
    ++probes;
    std::snprintf(line, sizeof(line), "; probe %.0f req/s %s]", mid,
                  pass ? "meets the limit" : "misses it");
    rounds += line;
  }
  std::printf("rounds:%s\n", rounds.c_str());
  const double rss = server.PeakRssMb();
  gen.reset();
  server.Stop();

  o->attempted = all.attempted;
  o->failed = all.failed;
  if (all.mismatches > 0)
    o->Fail(std::to_string(all.mismatches) +
            " served answers differ from the in-process rows");
  if (all.batch_ms.size() < 100 && !opt.self_test)
    o->Fail("fewer than 100 served batches");
  const double late_p50 = Quantile(all.lateness_us, 0.5);
  const double late_p99 = Quantile(all.lateness_us, 0.99);
  const bool valid =
      late_p99 <= std::max(kMinLatenessLimitUs,
                           kMaxLatenessShare * Quantile(all.extract_us, 0.99));
  const double achieved =
      all.wall_s > 0 ? static_cast<double>(all.lateness_us.size()) / all.wall_s
                     : 0;
  std::printf("generator: offered %.1f req/s, achieved %.1f req/s, lateness "
              "p50 %.1f us p99 %.1f us, %s; %llu churn ops; %llu refused%s%s\n",
              fixed.rate, achieved, late_p50, late_p99,
              valid ? "valid" : "INVALID (the generator fell behind)",
              static_cast<unsigned long long>(all.churn_ops),
              static_cast<unsigned long long>(all.refused),
              all.first_error.empty() ? "" : "; first error: ",
              all.first_error.c_str());

  double batch_total_ms = 0;
  for (double ms : all.batch_ms) batch_total_ms += ms;
  const double batch_bytes =
      static_cast<double>(engine.corpora[0].TotalBytes()) * all.batch_ms.size();
  Report& rep = o->report;
  rep.Set("throughput_mb_s", batch_bytes / 1e6 / (batch_total_ms / 1e3),
          "MB/s", all.batch_ms.size());
  rep.Set("batch_ms_p50", Quantile(all.batch_ms, 0.5), "ms",
          all.batch_ms.size());
  rep.Set("batch_ms_p90", Quantile(all.batch_ms, 0.9), "ms",
          all.batch_ms.size());
  rep.Set("extract_us_p50", Quantile(all.extract_us, 0.5), "us",
          all.extract_us.size());
  rep.Set("extract_us_p99", Quantile(all.extract_us, 0.99), "us",
          all.extract_us.size());
  rep.Set("max_rps", lo, "req/s", probes);
  rep.Set("setup_s", Median(setup_s), "s", setup_s.size());
  rep.Set("peak_rss_mb", rss, "MB", 1);
  rep.Set("error_rate",
          all.attempted ? static_cast<double>(all.failed) / all.attempted : 0,
          "ratio", all.attempted);
  rep.Set("generator.lateness_us_p50", late_p50, "us", all.lateness_us.size());
  rep.Set("generator.lateness_us_p99", late_p99, "us", all.lateness_us.size());
  rep.Set("generator.achieved_rps", achieved, "req/s", all.lateness_us.size());
  rep.Set("generator.valid", valid ? 1 : 0, "bool", 1);
}

// ---- one run ----------------------------------------------------------------

Outcome RunWorkload(const Options& opt) {
  Outcome o;
  Inputs in;
  if (!MakeInputs(opt.workload, opt.seed, &in)) {
    o.Fail("unknown workload " + opt.workload);
    return o;
  }
  std::printf("workload: %s seed %u: %zu docs, %zu bytes in %zu corpora, %zu "
              "jobs\n",
              in.workload.c_str(), opt.seed, in.TotalDocs(), in.TotalBytes(),
              in.corpora.size(), in.jobs.size());
  const std::vector<std::string> files = WriteCorpusFiles(in, opt.workdir);
  // The engine loads its corpora from these files; the generated copies
  // would only inflate the peak resident set.
  in.corpora = {};
  if (opt.workload == "served-mixed") {
    RunServed(opt, in, files, &o);
  } else {
    RunBatchWorkload(opt, in, files, &o);
  }
  return o;
}

void PrintResult(const Options& opt, const Outcome& o) {
  std::printf("%s", o.report.Text("  ").c_str());
  for (const std::string& p : o.problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, o.attempted)),
              static_cast<unsigned long long>(o.failed),
              o.report.Json(opt.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
}

// ---- self-test ----------------------------------------------------------------

int SelfTest(Options opt) {
  int failures = 0;
  auto verdict = [&](const std::string& what, bool ok) {
    std::printf("self-test: %-64s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
    failures += !ok;
  };
  for (const std::string& w : WorkloadNames()) {
    opt.workload = w;
    opt.seconds = 2;
    opt.trace = 0;
    const Outcome o = RunWorkload(opt);
    verdict(w + ": brief run passes every output check", o.correct);

    // A corrupted row must fail the digest check.
    Inputs in;
    MakeInputs(w, opt.seed, &in);
    const auto files = WriteCorpusFiles(in, opt.workdir);
    Engine engine;
    std::string error;
    Setup(in, files, &engine, &error);
    eng::BatchExtractor extractor;
    const BatchOutput corrupted = RunBatch(&extractor, engine, true);
    Outcome check;
    CheckOutputs(engine, corrupted.job_digests, &check);
    verdict(w + ": a corrupted row fails the digest check", !check.correct);
  }

  // A refused request must raise error_rate: one in-flight slot per
  // connection, requests pipelined faster than they complete.
  Inputs in;
  MakeInputs("served-mixed", opt.seed, &in);
  const auto files = WriteCorpusFiles(in, opt.workdir);
  Engine engine;
  std::string error;
  bool ok = Setup(in, files, &engine, &error);
  ServerProcess server;
  ServerConfig tight;
  tight.threads = 1;
  tight.queue = 1;
  tight.inflight = 1;
  const std::string socket = opt.workdir + "/selftest.sock";
  const std::string segment = opt.workdir + "/selftest.seg";
  IngestTimes ingest;
  ok = ok && IngestSegment(engine.corpora[0], segment, &ingest, &error) &&
       server.Start(opt.spanexd, socket, segment, tight, &error);
  uint64_t refused = 0;
  double error_rate = 0;
  if (ok) {
    LoadGenerator gen(socket, engine.jobs[0], engine.corpora[0].docs(),
                      in.extract_pool);
    ok = gen.Connect(&error);
    if (ok) {
      LoadSpec burst;
      burst.rate = 20000;
      burst.seconds = 0.05;
      burst.churn = false;
      const LoadResult r = gen.Run(burst);
      refused = r.refused;
      error_rate = r.attempted ? static_cast<double>(r.failed) / r.attempted : 0;
    }
  }
  server.Stop();
  std::printf("self-test: refusal probe: %llu refused, error_rate %.3f%s%s\n",
              static_cast<unsigned long long>(refused), error_rate,
              error.empty() ? "" : "; ", error.c_str());
  verdict("served-mixed: refused requests raise error_rate",
          ok && refused > 0 && error_rate > 0);
  std::printf("self-test: %s\n", failures == 0 ? "all checks bite" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(next(), nullptr);
    } else if (a == "--trace") {
      opt.trace = std::atoi(next());
    } else if (a == "--workdir") {
      opt.workdir = next();
    } else if (a == "--spanexd") {
      opt.spanexd = next();
    } else if (a == "--self-test") {
      opt.self_test = true;
    } else {
      return perfbench::Usage();
    }
  }
  std::string why;
  if (!perfbench::CheckProvenance(&why)) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }
  ::mkdir(opt.workdir.c_str(), 0755);
  if (opt.self_test) return perfbench::SelfTest(opt);
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end() ||
      opt.seconds <= 0)
    return perfbench::Usage();
  const perfbench::Outcome o = perfbench::RunWorkload(opt);
  perfbench::PrintResult(opt, o);
  return o.correct ? 0 : 1;
}
