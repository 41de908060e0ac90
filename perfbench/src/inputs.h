// Seeded inputs of the three benchmark workloads. The engine receives only
// what these functions generate; the same seed always yields the same
// documents, patterns and request mix.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/document.h"

namespace perfbench {

/// One unit of batch work: a plan fleet (one or more patterns) or an
/// algebra query over one of the workload's corpora.
struct Job {
  std::string name;
  size_t corpus = 0;
  /// Patterns in fleet order. A single pattern renders single-plan rows
  /// (AppendMappingRow); several render fleet rows (AppendFleetMappingRow),
  /// exactly as spanex and spanexd do.
  std::vector<std::string> patterns;
  /// Non-empty: the job is this algebra query instead of `patterns`;
  /// `patterns` then lists the query's leaf rgx patterns.
  std::string query;
  /// Literal every mapping of pattern p requires (`.*LIT...` patterns):
  /// the reference path skips documents without it by std::string::find,
  /// independent of the engine's own gates. Empty = no such shortcut.
  std::vector<std::string> required_literal;
  /// Fleet jobs: the documents ReferenceEval samples — every needle (a
  /// true match) and a few near-misses of both kinds.
  std::vector<size_t> sample_docs;
};

struct Inputs {
  std::string workload;
  std::vector<std::vector<spanners::Document>> corpora;
  std::vector<std::string> corpus_names;
  std::vector<Job> jobs;

  // served-mixed: the segment corpus is corpora[0] and jobs[0] the fleet
  // both server sessions register; `extract_pool` lists the documents
  // single-document requests draw from (in request order, cycled).
  std::vector<size_t> extract_pool;

  size_t TotalDocs() const;
  size_t TotalBytes() const;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Generates `workload`'s inputs from `seed`; false for an unknown name.
bool MakeInputs(const std::string& workload, uint32_t seed, Inputs* out);

/// `pattern` as a quoted string literal of the query language.
std::string QueryLiteral(const std::string& pattern);

/// A fresh pattern for the registration churn: a served fleet pattern
/// with a variable renamed per `k`, so every registration is a PlanCache
/// miss (a compile) while its rows stay checkable.
std::string ChurnPattern(uint64_t k);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
