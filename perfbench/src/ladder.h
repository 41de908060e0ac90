// The traced pass (--trace 1): per-layer costs of every layer the
// workload reaches, from calls the benchmark itself makes into each
// layer's public functions.
//
// The core is a replay of the engine's gate cascade, one document at a
// time, in the engine's order — shared Aho–Corasick pass, the plan's own
// prefilter, its lazy DFA, the evaluator (ExtractSortedPregatedInto), row
// formatting — with every call wrapped in a span (name, start, end,
// parent, batch id). Spans stay in memory and are written as a Chrome
// trace when the pass ends. Layers the cascade does not reach on a
// workload (compilation, fleet build, the plan cache, storage, the
// served round trip) are timed around their own public calls.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <string>

#include "engine_run.h"
#include "inputs.h"
#include "served.h"
#include "util.h"

namespace perfbench {

struct LadderContext {
  const Inputs* inputs = nullptr;
  const Engine* engine = nullptr;
  size_t threads = 1;
  std::string workdir;
  std::string spanexd;
  /// A running server + connected generator (served-mixed); null = the
  /// ladder starts its own spanexd over the workload's first plan job.
  LoadGenerator* generator = nullptr;
  const CompiledJob* served_job = nullptr;
  /// Expected digests of one batch (trace replay rows are checked too).
  std::vector<uint64_t> batch_digests;
};

/// Runs the ladder, fills `report` with every per-layer metric, writes
/// the span trace to `trace_path`. False (with *error) when a check fails.
bool RunLadder(const LadderContext& ctx, const std::string& trace_path,
               Report* report, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
