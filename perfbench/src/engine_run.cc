#include "engine_run.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "engine/format.h"
#include "query/parser.h"
#include "rgx/parser.h"
#include "rgx/reference_eval.h"

namespace perfbench {

namespace eng = spanners::engine;
using spanners::Document;
using spanners::Mapping;
using spanners::VarSet;

const eng::DocumentExtractor& CompiledJob::single() const {
  if (query != nullptr) return *query;
  return *plans[0];
}

std::vector<std::string> WriteCorpusFiles(const Inputs& in,
                                          const std::string& dir) {
  std::vector<std::string> paths;
  for (size_t c = 0; c < in.corpora.size(); ++c) {
    const std::string path = dir + "/" + in.corpus_names[c] + ".corpus";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const Document& d : in.corpora[c]) {
      out.write(d.text().data(), static_cast<std::streamsize>(d.text().size()));
      out.put('\0');
    }
    paths.push_back(path);
  }
  return paths;
}

bool Setup(const Inputs& in, const std::vector<std::string>& corpus_files,
           Engine* engine, std::string* error) {
  engine->jobs.clear();
  engine->corpora.clear();
  for (const std::string& path : corpus_files) {
    auto corpus = eng::Corpus::FromFile(path, '\0');
    if (!corpus.ok()) {
      *error = corpus.status().ToString();
      return false;
    }
    engine->corpora.push_back(std::move(corpus).ValueOrDie());
  }
  for (const Job& job : in.jobs) {
    CompiledJob cj;
    cj.job = &job;
    cj.corpus = &engine->corpora[job.corpus];
    for (const std::string& pattern : job.patterns) {
      auto plan = eng::ExtractionPlan::Compile(pattern);
      if (!plan.ok()) {
        *error = job.name + ": " + plan.status().ToString();
        return false;
      }
      cj.plans.push_back(std::make_shared<const eng::ExtractionPlan>(
          std::move(plan).ValueOrDie()));
    }
    if (!job.query.empty()) {
      auto expr = spanners::query::ParseQuery(job.query);
      if (!expr.ok()) {
        *error = job.name + ": " + expr.status().ToString();
        return false;
      }
      auto q = spanners::query::CompiledQuery::Compile(expr.ValueOrDie());
      if (!q.ok()) {
        *error = job.name + ": " + q.status().ToString();
        return false;
      }
      cj.query = std::make_unique<spanners::query::CompiledQuery>(
          std::move(q).ValueOrDie());
    } else if (cj.plans.size() > 1) {
      cj.fleet = std::make_unique<eng::MultiQueryExtractor>(cj.plans);
    }
    engine->jobs.push_back(std::move(cj));
  }
  // The first result: one document through each job.
  for (const CompiledJob& cj : engine->jobs) {
    if (cj.corpus->empty()) continue;
    DocScratch scratch;
    ExtractDigest(cj, (*cj.corpus)[0], 0, &scratch);
  }
  return true;
}

void AppendJobRow(std::string* buf, bool fleet, size_t p, size_t i,
                  const Mapping& m, const VarSet& vars, const Document& doc) {
  if (fleet) {
    eng::AppendFleetMappingRow(buf, eng::OutputFormat::kTsv, p, i, m, vars,
                               doc);
  } else {
    eng::AppendMappingRow(buf, eng::OutputFormat::kTsv, i, m, vars, doc);
  }
}

namespace {

void Corrupt(std::string* buf, bool* pending) {
  if (*pending && !buf->empty()) {
    (*buf)[0] ^= 0x20;
    *pending = false;
  }
}

}  // namespace

BatchOutput RunBatch(eng::BatchExtractor* extractor, const Engine& engine,
                     bool corrupt_row) {
  BatchOutput out;
  std::string buf;
  bool corrupt_pending = corrupt_row;
  for (const CompiledJob& cj : engine.jobs) {
    RowDigest digest;
    const eng::Corpus& corpus = *cj.corpus;
    if (cj.is_fleet()) {
      const eng::MultiQueryExtractor& fleet = *cj.fleet;
      extractor->ExtractMultiStream(
          fleet, corpus,
          [&](size_t begin, size_t end,
              std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
            buf.clear();
            for (size_t i = begin; i < end; ++i) {
              for (size_t p = 0; p < per_plan.size(); ++p) {
                const VarSet& vars = fleet.plan(p).vars();
                for (const Mapping& m : per_plan[p][i - begin])
                  AppendJobRow(&buf, true, p, i, m, vars, corpus[i]);
              }
            }
            Corrupt(&buf, &corrupt_pending);
            digest.AddRows(buf);
          });
    } else {
      const eng::DocumentExtractor& ex = cj.single();
      extractor->ExtractStream(
          ex, corpus,
          [&](size_t begin, size_t end,
              std::vector<std::vector<Mapping>>& per_doc) {
            buf.clear();
            for (size_t i = begin; i < end; ++i)
              for (const Mapping& m : per_doc[i - begin])
                AppendJobRow(&buf, false, 0, i, m, ex.vars(), corpus[i]);
            Corrupt(&buf, &corrupt_pending);
            digest.AddRows(buf);
          });
    }
    out.bytes += corpus.TotalBytes();
    out.rows += digest.rows();
    out.job_digests.push_back(digest.value());
  }
  return out;
}

uint64_t ExtractDigest(const CompiledJob& job, const Document& doc,
                       size_t doc_index, DocScratch* scratch) {
  const bool fleet = job.is_fleet();
  auto& slots = scratch->slots;
  auto& ptrs = scratch->slot_ptrs;
  const size_t n = fleet ? job.plans.size() : 1;
  if (slots.size() != n) {
    slots.assign(n, {});
    ptrs.clear();
    for (auto& s : slots) ptrs.push_back(&s);
  }
  if (fleet) {
    job.fleet->ExtractAllSortedInto(doc, &scratch->plan, ptrs.data());
  } else {
    job.single().ExtractSortedInto(doc, &scratch->plan, ptrs[0]);
  }
  RowDigest digest;
  std::string& row = scratch->row;
  for (size_t p = 0; p < n; ++p) {
    const VarSet& vars = fleet ? job.plans[p]->vars() : job.single().vars();
    for (const Mapping& m : slots[p]) {
      row.clear();
      AppendJobRow(&row, fleet, p, doc_index, m, vars, doc);
      row.pop_back();
      digest.AddRow(row);
    }
  }
  return digest.value();
}

namespace {

// Ungated copies of a job's patterns.
std::vector<std::unique_ptr<eng::ExtractionPlan>> UngatedPlans(
    const Job& job) {
  std::vector<std::unique_ptr<eng::ExtractionPlan>> plans;
  for (const std::string& pattern : job.patterns) {
    auto plan = std::make_unique<eng::ExtractionPlan>(
        eng::ExtractionPlan::Compile(pattern).ValueOrDie());
    plan->set_gating_enabled(false);
    plans.push_back(std::move(plan));
  }
  return plans;
}

// Set-semantics evaluation of join(union(A, B), C) from the leaf results.
std::vector<Mapping> UnionJoin(const std::vector<Mapping>& a,
                               const std::vector<Mapping>& b,
                               const std::vector<Mapping>& c) {
  std::set<Mapping> left(a.begin(), a.end());
  left.insert(b.begin(), b.end());
  std::set<Mapping> joined;
  for (const Mapping& l : left)
    for (const Mapping& r : c)
      if (auto u = Mapping::TryUnion(l, r)) joined.insert(std::move(*u));
  return std::vector<Mapping>(joined.begin(), joined.end());
}

// Rows of documents [begin, end) of one job on the reference path.
std::string ReferenceRows(const CompiledJob& cj,
                          const std::vector<std::unique_ptr<eng::ExtractionPlan>>&
                              plans,
                          size_t begin, size_t end) {
  const Job& job = *cj.job;
  const eng::Corpus& corpus = *cj.corpus;
  eng::PlanScratch scratch;
  std::string buf;
  std::vector<std::vector<Mapping>> res(plans.size());
  for (size_t i = begin; i < end; ++i) {
    const Document& doc = corpus[i];
    for (size_t p = 0; p < plans.size(); ++p) {
      res[p].clear();
      const std::string& lit =
          p < job.required_literal.size() ? job.required_literal[p] : "";
      if (!lit.empty() && doc.text().find(lit) == std::string::npos)
        continue;
      plans[p]->ExtractSortedInto(doc, &scratch, &res[p]);
    }
    if (!job.query.empty()) {
      for (const Mapping& m : UnionJoin(res[0], res[1], res[2]))
        AppendJobRow(&buf, false, 0, i, m, cj.query->vars(), doc);
    } else {
      for (size_t p = 0; p < plans.size(); ++p)
        for (const Mapping& m : res[p])
          AppendJobRow(&buf, plans.size() > 1, p, i, m, plans[p]->vars(), doc);
    }
  }
  return buf;
}

}  // namespace

std::vector<uint64_t> ReferenceDigests(const Engine& engine) {
  std::vector<uint64_t> digests;
  const size_t threads = std::max<size_t>(1, CpuCount());
  for (const CompiledJob& cj : engine.jobs) {
    auto plans = UngatedPlans(*cj.job);
    const size_t n = cj.corpus->size();
    const size_t parts = std::min(threads, std::max<size_t>(1, n));
    std::vector<std::string> rows(parts);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < parts; ++t)
      workers.emplace_back([&, t] {
        rows[t] = ReferenceRows(cj, plans, n * t / parts, n * (t + 1) / parts);
      });
    for (std::thread& w : workers) w.join();
    RowDigest digest;
    for (const std::string& r : rows) digest.AddRows(r);
    digests.push_back(digest.value());
  }
  return digests;
}

namespace {

// Small documents for ReferenceEval: the first lines of a document, or
// for a fleet job the line of each sample document carrying a tag literal
// (plus a filler line before it when there is one).
std::vector<std::string> SampleTexts(const CompiledJob& cj) {
  std::vector<std::string> out;
  const eng::Corpus& corpus = *cj.corpus;
  const Job& job = *cj.job;
  if (job.sample_docs.empty()) {
    const size_t step = std::max<size_t>(1, corpus.size() / 6);
    for (size_t i = 0; i < corpus.size() && out.size() < 6; i += step) {
      const std::string& t = corpus[i].text();
      size_t cut = 0;
      for (int lines = 0; lines < 2 && cut != std::string::npos; ++lines)
        cut = t.find('\n', cut == 0 && lines == 0 ? 0 : cut + 1);
      out.push_back(cut == std::string::npos ? t : t.substr(0, cut + 1));
    }
    return out;
  }
  for (size_t i : job.sample_docs) {
    const std::string& t = corpus[i].text();
    // Start of the line holding position `pos`.
    auto line_start = [&t](size_t pos) -> size_t {
      const size_t nl = pos == 0 ? std::string::npos : t.rfind('\n', pos - 1);
      return nl == std::string::npos ? 0 : nl + 1;
    };
    for (const std::string& lit : job.required_literal) {
      const size_t at = t.find(lit);
      if (at == std::string::npos) continue;
      const size_t line_begin = line_start(at);
      const size_t from = line_begin == 0 ? 0 : line_start(line_begin - 1);
      const size_t line_end = t.find('\n', at);
      out.push_back(t.substr(from, line_end - from + 1));
      break;
    }
  }
  return out;
}

}  // namespace

size_t ReferenceEvalSample(const Engine& engine, bool* ok,
                           size_t* with_mappings, std::string* detail) {
  size_t compared = 0;
  *with_mappings = 0;
  eng::PlanScratch scratch;
  for (const CompiledJob& cj : engine.jobs) {
    if (cj.query != nullptr) continue;  // covered leaf by leaf above
    for (const std::string& text : SampleTexts(cj)) {
      const Document doc(text);
      for (size_t p = 0; p < cj.plans.size(); ++p) {
        auto rgx = spanners::ParseRgx(cj.job->patterns[p]).ValueOrDie();
        spanners::MappingSet ref = spanners::ReferenceEval(rgx, doc);
        std::vector<Mapping> want(ref.begin(), ref.end());
        std::sort(want.begin(), want.end());
        std::vector<Mapping> got;
        cj.plans[p]->ExtractSortedInto(doc, &scratch, &got);
        ++compared;
        *with_mappings += !want.empty();
        if (got != want) {
          *ok = false;
          *detail = cj.job->name + " plan " + std::to_string(p) +
                    ": engine " + std::to_string(got.size()) +
                    " mappings, reference " + std::to_string(want.size());
        }
      }
    }
  }
  return compared;
}

InputProperties MeasureProperties(const Engine& engine) {
  InputProperties props;
  uint64_t matched = 0, near_miss = 0, evaluated = 0, mappings = 0,
           partial = 0;
  eng::PlanScratch scratch;
  std::vector<Mapping> out;
  for (const CompiledJob& cj : engine.jobs) {
    if (cj.query != nullptr) continue;  // its corpus is counted by a plan job
    for (size_t i = 0; i < cj.corpus->size(); ++i) {
      const Document& doc = (*cj.corpus)[i];
      bool any_match = false, any_near = false, any_eval = false;
      for (const auto& plan : cj.plans) {
        // The shared-gate notion of a hit: a literal of the plan's
        // strongest clause occurs (a plan without one is never gated).
        const auto& clauses = plan->prefilter().clauses();
        bool hit = clauses.empty();
        for (size_t l = 0; !hit && l < clauses[0].literals.size(); ++l)
          hit = doc.text().find(clauses[0].literals[l]) != std::string::npos;
        if (!hit) continue;
        plan->ExtractSortedInto(doc, &scratch, &out);
        const bool passes_literals = plan->prefilter().Matches(doc.text());
        const auto dfa = plan->lazy_dfa().Matches(doc.text());
        if (passes_literals && (!dfa.has_value() || *dfa)) any_eval = true;
        if (!out.empty()) any_match = true;
        if (out.empty() && !clauses.empty()) any_near = true;
        mappings += out.size();
        for (const Mapping& m : out)
          if (m.size() < plan->vars().size()) ++partial;
      }
      props.docs += 1;
      props.bytes += doc.text().size();
      matched += any_match;
      near_miss += any_near;
      evaluated += any_eval;
    }
  }
  const double docs = props.docs == 0 ? 1.0 : static_cast<double>(props.docs);
  props.share_matched = matched / docs;
  props.share_near_miss = near_miss / docs;
  props.share_evaluated = evaluated / docs;
  props.mappings_per_doc = mappings / docs;
  props.share_partial =
      mappings == 0 ? 0 : static_cast<double>(partial) / mappings;
  return props;
}

std::string PropertiesJson(const InputProperties& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"docs\": %zu, \"bytes\": %zu, \"share_matched\": %.6f, "
                "\"share_near_miss\": %.6f, \"share_evaluated\": %.6f, "
                "\"mappings_per_doc\": %.4f, \"share_partial\": %.6f}",
                p.docs, p.bytes, p.share_matched, p.share_near_miss,
                p.share_evaluated, p.mappings_per_doc, p.share_partial);
  return buf;
}

}  // namespace perfbench
