#include "ladder.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>

#include "common/aho_corasick.h"
#include "engine/batch_extractor.h"
#include "engine/format.h"
#include "engine/plan_cache.h"
#include "query/parser.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"

namespace perfbench {

namespace eng = spanners::engine;
using spanners::Document;
using spanners::Mapping;

namespace {

// ---- spans --------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t start = 0, end = 0;
  int32_t parent = -1;
  uint32_t id = 0;  // batch id
};

class Tracer {
 public:
  /// A disabled tracer records nothing: the untraced twin of a replay.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  void set_id(uint32_t id) { id_ = id; }
  void Begin(const char* name) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id_;
    stack_.push_back(static_cast<int32_t>(spans_.size()));
    spans_.push_back(s);
    spans_.back().start = NowNs();
  }
  void End() {
    if (!enabled_) return;
    spans_[stack_.back()].end = NowNs();
    stack_.pop_back();
  }
  /// Self time per span name: duration minus the children's durations.
  std::map<std::string, uint64_t> SelfNs() const {
    std::vector<uint64_t> child(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    std::map<std::string, uint64_t> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const uint64_t dur = spans_[i].end - spans_[i].start;
      self[spans_[i].name] += dur > child[i] ? dur - child[i] : 0;
    }
    return self;
  }
  uint64_t RootNs() const {
    uint64_t ns = 0;
    for (const Span& s : spans_)
      if (s.parent < 0) ns += s.end - s.start;
    return ns;
  }
  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[\n";
    const uint64_t t0 = spans_.empty() ? 0 : spans_[0].start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << FormatDouble((s.start - t0) / 1e3)
          << ",\"dur\":" << FormatDouble((s.end - s.start) / 1e3)
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
          << ",\"batch\":" << s.id << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint32_t id_ = 0;
  bool enabled_;
};

// ---- the replayed cascade ------------------------------------------------

struct Counts {
  uint64_t ac_bytes = 0;
  uint64_t pf_calls = 0, pf_bytes = 0, pf_rejects = 0;
  uint64_t dfa_calls = 0, dfa_bytes = 0, dfa_rejects = 0;
  uint64_t eval_calls = 0, eval_bytes = 0, eval_useful = 0, mappings = 0;
  uint64_t rows = 0;
  uint64_t query_docs = 0;
};

// The fleet's shared gate, rebuilt from public plan state exactly as
// MultiQueryExtractor builds it: every literal of each plan's strongest
// (first) prefilter clause.
struct SharedGate {
  std::unique_ptr<spanners::AhoCorasick> ac;
  std::vector<std::vector<uint32_t>> pattern_plans;
  std::vector<uint8_t> gated;
};

SharedGate BuildGate(const CompiledJob& cj) {
  SharedGate g;
  std::vector<std::string> lits;
  g.gated.assign(cj.plans.size(), 0);
  for (size_t p = 0; p < cj.plans.size(); ++p) {
    const auto& clauses = cj.plans[p]->prefilter().clauses();
    if (clauses.empty()) continue;
    g.gated[p] = 1;
    for (const std::string& lit : clauses[0].literals) {
      lits.push_back(lit);
      g.pattern_plans.push_back({static_cast<uint32_t>(p)});
    }
  }
  if (!lits.empty()) g.ac = std::make_unique<spanners::AhoCorasick>(lits);
  return g;
}

void ReplayJob(const CompiledJob& cj, const SharedGate& gate, Tracer* tr,
               Counts* c, RowDigest* digest) {
  const eng::Corpus& corpus = *cj.corpus;
  eng::PlanScratch scratch;
  std::vector<Mapping> out;
  std::string buf;
  std::vector<uint8_t> bits(cj.plans.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Document& doc = corpus[i];
    const std::string& text = doc.text();
    tr->Begin("doc");
    buf.clear();
    if (cj.query != nullptr) {
      tr->Begin("query");
      cj.query->ExtractSortedInto(doc, &scratch, &out);
      tr->End();
      ++c->query_docs;
      c->mappings += out.size();
      tr->Begin("format");
      for (const Mapping& m : out)
        AppendJobRow(&buf, false, 0, i, m, cj.query->vars(), doc);
      tr->End();
    } else {
      const bool fleet = cj.is_fleet();
      if (fleet) {
        std::fill(bits.begin(), bits.end(), 0);
        if (gate.ac != nullptr) {
          tr->Begin("ac");
          gate.ac->Scan(text, [&](uint32_t pattern, size_t) {
            for (uint32_t p : gate.pattern_plans[pattern]) bits[p] = 1;
            return true;
          });
          tr->End();
          c->ac_bytes += text.size();
        }
      }
      for (size_t p = 0; p < cj.plans.size(); ++p) {
        const eng::ExtractionPlan& plan = *cj.plans[p];
        if (fleet && gate.gated[p] && !bits[p]) continue;
        // A fleet re-runs the full prefilter only when it holds clauses
        // beyond the gated one; a lone plan runs it whenever it can prune.
        const size_t clauses = plan.prefilter().clauses().size();
        if (fleet ? clauses > 1 : clauses > 0) {
          tr->Begin("prefilter");
          const bool pass = plan.prefilter().Matches(text);
          tr->End();
          ++c->pf_calls;
          c->pf_bytes += text.size();
          if (!pass) {
            ++c->pf_rejects;
            continue;
          }
        }
        tr->Begin("lazy_dfa");
        const auto verdict = plan.lazy_dfa().Matches(text);
        tr->End();
        ++c->dfa_calls;
        c->dfa_bytes += text.size();
        if (verdict.has_value() && !*verdict) {
          ++c->dfa_rejects;
          continue;
        }
        tr->Begin("eval");
        plan.ExtractSortedPregatedInto(doc, &scratch, &out);
        tr->End();
        ++c->eval_calls;
        c->eval_bytes += text.size();
        c->eval_useful += !out.empty();
        c->mappings += out.size();
        if (out.empty()) continue;
        tr->Begin("format");
        for (const Mapping& m : out)
          AppendJobRow(&buf, fleet, p, i, m, plan.vars(), doc);
        tr->End();
      }
    }
    tr->End();
    digest->AddRows(buf);
  }
  c->rows += digest->rows();
}

template <typename Fn>
double MedianNs(size_t reps, Fn&& fn) {
  std::vector<double> v;
  for (size_t r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNs();
    fn();
    v.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(v);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

const CompiledJob* FirstPlanJob(const Engine& engine) {
  for (const CompiledJob& cj : engine.jobs)
    if (cj.query == nullptr) return &cj;
  return nullptr;
}

// One document through `fleet` exactly as spanexd's extract runs it.
void InProcessExtract(eng::BatchExtractor* batch,
                      const eng::MultiQueryExtractor& fleet,
                      const Document& doc, size_t doc_index) {
  eng::Corpus one;
  one.Add(doc);
  const eng::MultiBatchResult result = batch->ExtractMulti(fleet, one);
  std::string row;
  for (size_t p = 0; p < fleet.num_plans(); ++p)
    for (const Mapping& m : result.per_plan[p].per_doc[0]) {
      row.clear();
      AppendJobRow(&row, fleet.num_plans() > 1, p, doc_index, m,
                   fleet.plan(p).vars(), doc);
    }
}

}  // namespace

bool RunLadder(const LadderContext& ctx, const std::string& trace_path,
               Report* report, std::string* error) {
  const Engine& engine = *ctx.engine;

  // engine.plan: compile (rgx parse + analysis + automata).
  {
    std::vector<double> us;
    for (size_t rep = 0; us.size() < 40 && rep < 40; ++rep)
      for (const CompiledJob& cj : engine.jobs)
        for (const std::string& pattern : cj.job->patterns) {
          const uint64_t t0 = NowNs();
          auto plan = eng::ExtractionPlan::Compile(pattern);
          us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        }
    report->Set("engine.plan.compile_us", Median(us), "us", us.size());
  }

  // engine.multi_query: fleet build over every plan of the workload.
  std::vector<std::shared_ptr<const eng::ExtractionPlan>> all_plans;
  std::vector<std::string> all_patterns;
  for (const CompiledJob& cj : engine.jobs)
    if (cj.query == nullptr) {
      all_plans.insert(all_plans.end(), cj.plans.begin(), cj.plans.end());
      all_patterns.insert(all_patterns.end(), cj.job->patterns.begin(),
                          cj.job->patterns.end());
    }
  report->Set("engine.multi_query.fleet_build_us",
              MedianNs(21, [&] { eng::MultiQueryExtractor f(all_plans); }) /
                  1e3,
              "us", 21);

  // engine.plan_cache: a hit on a resident pattern.
  {
    eng::PlanCache cache;
    for (const std::string& p : all_patterns) cache.GetOrCompile(p);
    const size_t reps = 20000;
    std::vector<double> per;
    for (int round = 0; round < 5; ++round) {
      const uint64_t t0 = NowNs();
      for (size_t r = 0; r < reps; ++r)
        cache.GetOrCompile(all_patterns[r % all_patterns.size()]);
      per.push_back(static_cast<double>(NowNs() - t0) / reps);
    }
    report->Set("engine.plan_cache.hit_ns", Median(per), "ns", 5 * reps);
  }

  // Untraced batches: 1 thread (the traced replay's baseline) and the
  // full pool (parallel efficiency).
  eng::BatchOptions one_opt;
  one_opt.num_threads = 1;
  eng::BatchExtractor one(one_opt);
  eng::BatchOptions all_opt;
  all_opt.num_threads = ctx.threads;
  eng::BatchExtractor all(all_opt);
  RunBatch(&one, engine);  // warm every lazy DFA and arena
  const double t1_ns = MedianNs(5, [&] { RunBatch(&one, engine); });
  const double tn_ns = MedianNs(5, [&] { RunBatch(&all, engine); });
  report->Set("engine.batch_extractor.parallel_efficiency",
              t1_ns / (static_cast<double>(ctx.threads) * tn_ns), "ratio", 8);

  // Untraced, job by job: the replay (the tracing-overhead baseline) and
  // the engine's own per-document entry point (a fleet's
  // ExtractAllSortedInto, an extractor's ExtractSortedInto), rows rendered
  // by both. What a fleet does per (plan, document) beyond the cascade the
  // replay runs — skip counters, result-slot recycling — is
  // engine.multi_query's self time; what the 1-thread batch costs beyond
  // the per-document calls is engine.batch_extractor's.
  std::vector<SharedGate> gates;
  double untraced_ns = 0, direct_ns = 0, multi_query_ns = 0;
  for (size_t j = 0; j < engine.jobs.size(); ++j) {
    const CompiledJob& cj = engine.jobs[j];
    gates.push_back(BuildGate(cj));
    const double replay_ns = MedianNs(5, [&] {
      Tracer off(false);
      Counts ignored;
      RowDigest digest;
      ReplayJob(cj, gates[j], &off, &ignored, &digest);
    });
    DocScratch scratch;
    const double job_ns = MedianNs(5, [&] {
      for (size_t i = 0; i < cj.corpus->size(); ++i)
        ExtractDigest(cj, (*cj.corpus)[i], i, &scratch);
    });
    untraced_ns += replay_ns;
    direct_ns += job_ns;
    if (cj.is_fleet()) multi_query_ns += std::max(0.0, job_ns - replay_ns);
  }
  const double batch_ns = std::max(0.0, t1_ns - direct_ns);

  // The replay traced, its rows checked against the batch digests.
  Tracer tracer(true);
  tracer.set_id(1);
  Counts c;
  tracer.Begin("batch");
  for (size_t j = 0; j < engine.jobs.size(); ++j) {
    RowDigest digest;
    ReplayJob(engine.jobs[j], gates[j], &tracer, &c, &digest);
    if (j < ctx.batch_digests.size() &&
        digest.value() != ctx.batch_digests[j]) {
      *error = "traced replay rows differ from the batch rows in job " +
               engine.jobs[j].job->name;
      return false;
    }
  }
  tracer.End();
  const auto self = tracer.SelfNs();
  auto self_ns = [&](const char* name) -> uint64_t {
    auto it = self.find(name);
    return it == self.end() ? 0 : it->second;
  };
  const double traced_ns = static_cast<double>(tracer.RootNs());

  // AC: a workload with no fleet still has a gate literal set; scan it
  // alone over every corpus so the layer is measured everywhere.
  double ac_ns = static_cast<double>(self_ns("ac"));
  uint64_t ac_bytes = c.ac_bytes;
  if (ac_bytes == 0) {
    std::vector<std::string> lits;
    for (const auto& plan : all_plans)
      if (!plan->prefilter().clauses().empty())
        for (const std::string& l : plan->prefilter().clauses()[0].literals)
          lits.push_back(l);
    if (!lits.empty()) {
      spanners::AhoCorasick ac(lits);
      const uint64_t t0 = NowNs();
      for (const eng::Corpus& corpus : engine.corpora)
        for (const Document& d : corpus) {
          ac.AnyMatch(d.text());
          ac_bytes += d.text().size();
        }
      ac_ns = static_cast<double>(NowNs() - t0);
    }
  }
  report->Set("common.aho_corasick.ns_per_byte", ac_ns / std::max<double>(1, ac_bytes),
              "ns/B", ac_bytes);
  report->Set("engine.prefilter.ns_per_byte",
              Ratio(self_ns("prefilter"), c.pf_bytes), "ns/B", c.pf_calls);
  report->Set("engine.prefilter.reject_ratio", Ratio(c.pf_rejects, c.pf_calls),
              "ratio", c.pf_calls);
  report->Set("automata.lazy_dfa.ns_per_byte",
              Ratio(self_ns("lazy_dfa"), c.dfa_bytes), "ns/B", c.dfa_calls);
  report->Set("automata.lazy_dfa.reject_ratio",
              Ratio(c.dfa_rejects, c.dfa_calls), "ratio", c.dfa_calls);
  uint64_t misses = 0;
  for (const auto& plan : all_plans) misses += plan->lazy_dfa().stats().misses;
  report->Set("automata.lazy_dfa.misses", static_cast<double>(misses), "count",
              all_plans.size());
  report->Set("automata.eval.ns_per_byte", Ratio(self_ns("eval"), c.eval_bytes),
              "ns/B", c.eval_calls);
  report->Set("automata.eval.us_per_doc",
              Ratio(self_ns("eval"), c.eval_calls) / 1e3, "us", c.eval_calls);
  report->Set("automata.eval.mappings_per_doc",
              Ratio(c.mappings, c.eval_calls + c.query_docs), "count",
              c.eval_calls + c.query_docs);
  report->Set("automata.eval.useful_ratio", Ratio(c.eval_useful, c.eval_calls),
              "ratio", c.eval_calls);
  report->Set("engine.format.ns_per_row", Ratio(self_ns("format"), c.rows),
              "ns", c.rows);

  // query: the query's time minus its leaf plans run alone. A workload
  // without a query job measures union(first two plans) over its corpus.
  {
    std::unique_ptr<spanners::query::CompiledQuery> own;
    const spanners::query::CompiledQuery* q = nullptr;
    const eng::Corpus* corpus = nullptr;
    std::vector<std::shared_ptr<const eng::ExtractionPlan>> leaves;
    for (const CompiledJob& cj : engine.jobs)
      if (cj.query != nullptr) {
        q = cj.query.get();
        corpus = cj.corpus;
        leaves = cj.plans;
        break;
      }
    const CompiledJob* pj = FirstPlanJob(engine);
    if (q == nullptr && pj != nullptr && pj->plans.size() >= 2) {
      std::string text = "union(";
      for (size_t k = 0; k < 2; ++k) {
        text += (k ? ", rgx(" : "rgx(") + QueryLiteral(pj->job->patterns[k]) + ")";
        leaves.push_back(pj->plans[k]);
      }
      text += ")";
      auto parsed = spanners::query::ParseQuery(text);
      auto compiled = parsed.ok() ? spanners::query::CompiledQuery::Compile(
                                        parsed.ValueOrDie())
                                  : spanners::Result<spanners::query::CompiledQuery>(
                                        parsed.status());
      if (!compiled.ok()) {
        *error = "ladder query: " + compiled.status().ToString();
        return false;
      }
      own = std::make_unique<spanners::query::CompiledQuery>(
          std::move(compiled).ValueOrDie());
      q = own.get();
      corpus = pj->corpus;
    }
    double ops_us = 0;
    if (q != nullptr) {
      eng::PlanScratch scratch;
      std::vector<Mapping> out;
      auto run_query = [&] {
        for (const Document& d : *corpus) q->ExtractSortedInto(d, &scratch, &out);
      };
      auto run_leaves = [&] {
        for (const Document& d : *corpus)
          for (const auto& leaf : leaves)
            leaf->ExtractSortedInto(d, &scratch, &out);
      };
      run_query();
      run_leaves();
      const double qns = MedianNs(3, run_query);
      const double lns = MedianNs(3, run_leaves);
      ops_us = (qns - lns) / std::max<size_t>(1, corpus->size()) / 1e3;
    }
    report->Set("query.ops_us_per_doc", ops_us, "us",
                corpus == nullptr ? 0 : corpus->size());
  }

  // Self-time shares among the layers — the traced replay's, the fleet's
  // and the batch extractor's — the remainder they do not explain against
  // the untraced 1-thread engine batch, and what tracing cost (traced
  // replay over the same replay untraced).
  const double gate_ns = (c.ac_bytes > 0 ? ac_ns : 0) +
                         static_cast<double>(self_ns("prefilter") +
                                             self_ns("lazy_dfa"));
  const double eval_ns =
      static_cast<double>(self_ns("eval") + self_ns("query"));
  const double format_ns = static_cast<double>(self_ns("format"));
  const double layers =
      gate_ns + eval_ns + format_ns + multi_query_ns + batch_ns;
  report->Set("trace.eval_share", eval_ns / layers, "ratio", c.eval_calls);
  report->Set("trace.gate_share", gate_ns / layers, "ratio", c.dfa_calls);
  report->Set("trace.format_share", format_ns / layers, "ratio", c.rows);
  report->Set("trace.multi_query_share", multi_query_ns / layers, "ratio", 5);
  report->Set("trace.batch_extractor_share", batch_ns / layers, "ratio", 5);
  report->Set("trace.unattributed_share", (t1_ns - layers) / t1_ns, "ratio", 5);
  report->Set("trace.overhead_ratio", traced_ns / untraced_ns - 1, "ratio", 5);
  // The untraced times behind the shares (report text only).
  report->Set("trace.batch_1thread_ms", t1_ns / 1e6, "ms", 5);
  report->Set("trace.per_doc_calls_ms", direct_ns / 1e6, "ms", 5);
  report->Set("trace.replay_ms", untraced_ns / 1e6, "ms", 5);
  tracer.Write(trace_path);

  // storage: the served corpus (or the first plan job's) through the
  // durable segment write, open, materialization and the trigram index.
  const CompiledJob* sj =
      ctx.served_job != nullptr ? ctx.served_job : FirstPlanJob(engine);
  if (sj == nullptr) {
    *error = "ladder: no plan job";
    return false;
  }
  const eng::Corpus& scorpus = *sj->corpus;
  const double sbytes = static_cast<double>(scorpus.TotalBytes());
  const std::string seg = ctx.workdir + "/ladder.seg";
  {
    IngestTimes times;
    std::string err;
    if (!IngestSegment(scorpus, seg, &times, &err)) {
      *error = "ladder " + err;
      return false;
    }
    auto store = spanners::storage::SegmentStore::Open(seg);
    if (!store.ok()) {
      *error = "segment open: " + store.status().ToString();
      return false;
    }
    const auto& s = store.ValueOrDie();
    auto opened =
        spanners::storage::NgramIndex::Open(spanners::storage::IndexPathFor(seg),
                                            s.num_docs());
    if (!opened.ok()) {
      *error = "index open: " + opened.status().ToString();
      return false;
    }
    const auto& index = opened.ValueOrDie();
    std::vector<double> mat_ns, lookup_ns;
    for (int rep = 0; rep < 3; ++rep) {
      const uint64_t t0 = NowNs();
      size_t total = 0;
      for (size_t i = 0; i < s.num_docs(); ++i)
        total += s.MaterializeDoc(i).text().size();
      mat_ns.push_back(static_cast<double>(NowNs() - t0) /
                       std::max<double>(1, total));
    }
    std::vector<uint8_t> any(s.num_docs(), 0);
    bool all_docs = false;
    for (int rep = 0; rep < 5; ++rep)
      for (const auto& plan : sj->plans) {
        spanners::storage::LookupStats ls;
        const uint64_t t0 = NowNs();
        const auto cand = index.Candidates(plan->prefilter(), &ls);
        lookup_ns.push_back(static_cast<double>(NowNs() - t0));
        if (cand.all) all_docs = true;
        for (uint32_t d : cand.docs) any[d] = 1;
      }
    size_t n = 0;
    for (uint8_t a : any) n += a;
    report->Set("storage.segment.write_mb_s",
                sbytes / 1e6 / Seconds(times.write_ns), "MB/s", 1);
    report->Set("storage.segment.open_ms", times.open_ns / 1e6, "ms", 1);
    report->Set("storage.segment.materialize_ns_per_byte", Median(mat_ns),
                "ns/B", 3);
    report->Set("storage.ngram_index.build_mb_s",
                sbytes / 1e6 / Seconds(times.index_ns), "MB/s", 1);
    report->Set("storage.ngram_index.lookup_us", Median(lookup_ns) / 1e3, "us",
                lookup_ns.size());
    report->Set("storage.ngram_index.candidate_ratio",
                all_docs ? 1.0 : Ratio(n, std::max<size_t>(1, s.num_docs())),
                "ratio", 1);
  }

  // server: ping, the served overhead of one extract over the in-process
  // call, and the queue wait behind a running batch.
  {
    ServerProcess own_server;
    std::unique_ptr<LoadGenerator> own_gen;
    LoadGenerator* gen = ctx.generator;
    std::vector<size_t> pool = ctx.inputs->extract_pool;
    if (pool.empty())
      for (size_t i = 0; i < std::min<size_t>(16, scorpus.size()); ++i)
        pool.push_back(i);
    ServerConfig config;
    if (gen == nullptr) {
      std::string err;
      if (!own_server.Start(ctx.spanexd, ctx.workdir + "/ladder.sock", seg,
                            config, &err)) {
        *error = "ladder server: " + err;
        return false;
      }
      own_gen = std::make_unique<LoadGenerator>(
          ctx.workdir + "/ladder.sock", *sj, sj->corpus->docs(), pool);
      if (!own_gen->Connect(&err)) {
        *error = "ladder server: " + err;
        return false;
      }
      // The served batch renders sj's rows exactly as the batch does.
      own_gen->set_expected_batch_digest(
          ctx.batch_digests[static_cast<size_t>(sj - engine.jobs.data())]);
      gen = own_gen.get();
    }
    bool ok = true, all_ok = true;
    std::vector<double> ping;
    for (int i = 0; i < 300; ++i) {
      ping.push_back(gen->PingRttUs(&ok));
      all_ok = all_ok && ok;
    }
    std::vector<double> served, local;
    eng::BatchOptions so;
    so.num_threads = config.threads;
    eng::BatchExtractor sbatch(so);
    std::unique_ptr<eng::MultiQueryExtractor> fleet_of_one;
    const eng::MultiQueryExtractor* fleet = sj->fleet.get();
    if (fleet == nullptr) {
      fleet_of_one = std::make_unique<eng::MultiQueryExtractor>(sj->plans);
      fleet = fleet_of_one.get();
    }
    for (int rep = 0; rep < 5; ++rep)
      for (size_t k = 0; k < pool.size(); ++k) {
        served.push_back(gen->ExtractRttUs(k, &ok));
        all_ok = all_ok && ok;
        const uint64_t t0 = NowNs();
        InProcessExtract(&sbatch, *fleet, scorpus[pool[k]], pool[k]);
        local.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
    std::vector<double> wait;
    for (int rep = 0; rep < 8; ++rep) {
      const double idle = gen->ExtractRttUs(rep, &ok);
      all_ok = all_ok && ok;
      wait.push_back(gen->ExtractRttDuringBatchUs(rep, &ok) - idle);
      all_ok = all_ok && ok;
    }
    if (!all_ok) {
      *error = "ladder: a served request failed or its rows differed";
      return false;
    }
    report->Set("server.ping_rtt_us", Median(ping), "us", ping.size());
    report->Set("server.overhead_us", Median(served) - Median(local), "us",
                served.size());
    report->Set("server.queue_wait_us", Median(wait), "us", wait.size());
  }
  return true;
}

}  // namespace perfbench
