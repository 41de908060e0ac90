// In-process engine driving: load a workload's corpora and compile its
// jobs through the public calls spanex makes (Corpus load,
// ExtractionPlan::Compile, query compilation, MultiQueryExtractor), run
// one batch with BatchExtractor::Extract{,Multi}Stream rendering every
// row with AppendMappingRow / AppendFleetMappingRow, and compute the
// independent reference digests every batch is checked against.
#ifndef PERFBENCH_ENGINE_RUN_H_
#define PERFBENCH_ENGINE_RUN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/batch_extractor.h"
#include "engine/corpus.h"
#include "engine/multi_query.h"
#include "engine/plan.h"
#include "inputs.h"
#include "query/compile.h"
#include "util.h"

namespace perfbench {

/// One job compiled against its loaded corpus.
struct CompiledJob {
  const Job* job = nullptr;
  const spanners::engine::Corpus* corpus = nullptr;
  std::vector<std::shared_ptr<const spanners::engine::ExtractionPlan>> plans;
  /// Set for multi-pattern jobs.
  std::unique_ptr<spanners::engine::MultiQueryExtractor> fleet;
  /// Set for query jobs (plans then hold the leaves, compiled alone).
  std::unique_ptr<spanners::query::CompiledQuery> query;

  bool is_fleet() const { return fleet != nullptr; }
  const spanners::engine::DocumentExtractor& single() const;
};

/// Everything a batch needs, built by Setup().
struct Engine {
  std::vector<spanners::engine::Corpus> corpora;
  std::vector<CompiledJob> jobs;
};

/// Writes each corpus of `in` to `dir`/<name>.corpus (NUL-delimited), the
/// file Setup() loads; returns the paths.
std::vector<std::string> WriteCorpusFiles(const Inputs& in,
                                          const std::string& dir);

/// Loads the corpus files, compiles every job and extracts the first
/// document of each (the first result). Timing this call is setup_s.
bool Setup(const Inputs& in, const std::vector<std::string>& corpus_files,
           Engine* engine, std::string* error);

/// Renders one mapping of document `i` as spanex and spanexd do: a fleet
/// row (AppendFleetMappingRow) carries the plan index `p`, a single-plan or
/// query row (AppendMappingRow) does not.
void AppendJobRow(std::string* buf, bool fleet, size_t p, size_t i,
                  const spanners::Mapping& m, const spanners::VarSet& vars,
                  const spanners::Document& doc);

/// What one batch produced.
struct BatchOutput {
  uint64_t rows = 0;
  uint64_t bytes = 0;  // corpus bytes extracted
  std::vector<uint64_t> job_digests;
};

/// One batch: every job of `engine`, each through the streamed batch
/// entry point, every row rendered and digested. `corrupt_row` (self-test)
/// flips one byte of the first rendered row before it is digested.
BatchOutput RunBatch(spanners::engine::BatchExtractor* extractor,
                     const Engine& engine, bool corrupt_row = false);

/// Buffers of single-document extraction, reused across calls (one per
/// thread), so the timed call allocates only what the engine allocates.
struct DocScratch {
  spanners::engine::PlanScratch plan;
  std::vector<std::vector<spanners::Mapping>> slots;
  std::vector<std::vector<spanners::Mapping>*> slot_ptrs;
  std::string row;
};

/// Digest of the rows of one document under a job — a fleet's
/// ExtractAllSortedInto, else the plan's or query's ExtractSortedInto —
/// rendered as spanexd's `extract` answers them (bare rows; doc label
/// `doc_index`).
uint64_t ExtractDigest(const CompiledJob& job, const spanners::Document& doc,
                       size_t doc_index, DocScratch* scratch);

/// The independent path: each job re-compiled with gating off, run one
/// document at a time (single-threaded extraction per document; documents
/// lacking a pattern's required literal are skipped by std::string::find),
/// queries recomputed from their leaves with set semantics (union, then
/// natural join of compatible mappings). Digests in job order.
std::vector<uint64_t> ReferenceDigests(const Engine& engine);

/// ReferenceEval (the paper's Table 2 semantics) against the engine on a
/// deterministic sample of small documents cut from the corpora (for a
/// fleet job: the lines of its Job::sample_docs). Returns the number of
/// (plan, document) pairs compared, *with_mappings of them with a
/// non-empty reference; sets *ok false on any mismatch.
size_t ReferenceEvalSample(const Engine& engine, bool* ok,
                           size_t* with_mappings, std::string* detail);

/// Measured input properties (the workload record).
struct InputProperties {
  size_t docs = 0;
  size_t bytes = 0;
  double share_matched = 0;     // docs with >= 1 mapping under some plan
  double share_near_miss = 0;   // docs holding a plan's gate literal
                                // that yield no mapping for that plan
  double share_evaluated = 0;   // docs reaching some plan's evaluator
  double mappings_per_doc = 0;
  double share_partial = 0;     // mappings leaving a variable unassigned
};

InputProperties MeasureProperties(const Engine& engine);

std::string PropertiesJson(const InputProperties& p);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_RUN_H_
