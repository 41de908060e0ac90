#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "rgx/printer.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using spanners::Document;

// ---- dense-extract sizes ------------------------------------------------
constexpr size_t kLandDocs = 400;
constexpr size_t kLandRows = 6;
constexpr size_t kLogDocs = 400;
constexpr size_t kLogLines = 6;

// ---- sparse-fleet sizes -------------------------------------------------
constexpr size_t kFleetPlans = 64;
constexpr size_t kFleetDocs = 24000;
constexpr size_t kFleetDocBytes = 1000;
constexpr size_t kFleetNeedles = 8;       // true matches, whole corpus
constexpr size_t kFleetNearMisses = 2000; // docs given a near-miss line

// ---- served-mixed sizes -------------------------------------------------
constexpr size_t kServedPlans = 4;
constexpr size_t kServedDocs = 1000;
constexpr size_t kServedDocBytes = 1000;
constexpr size_t kServedNeedlesPerPlan = 10;  // 1% per plan
// One request in eight hits a needle document, so the extract p50 sits
// well inside the non-matching requests rather than on the edge between
// the two service times.
constexpr size_t kExtractPoolMatching = 8;
constexpr size_t kExtractPoolOther = 56;

// The union+join algebra query over the server log (the same query the
// engine's query benchmarks run): two extraction views fused by union,
// joined against a third on the shared method variable.
const char* const kLogLeafA =
    "(.*\\n|\\e)[a-z0-9]+ (m{[A-Z]+}) (p{[^ \\n]*}) [0-9]+"
    "( err=(c{[a-z]+})|\\e)\\n.*";
const char* const kLogLeafB =
    "(.*\\n|\\e)[a-z0-9]+ (m{GET}) (p{[^ \\n]*}) [0-9]+\\n.*";
const char* const kLogLeafC =
    "(.*\\n|\\e)[a-z0-9]+ (m{[A-Z]+}) [^ \\n]* (s{[0-9]+})"
    "( err=[a-z]+|\\e)\\n.*";

std::string Tag(size_t p) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "EVT%02zu", p);
  return buf;
}

std::string FleetPattern(size_t p) {
  return ".*" + Tag(p) + " id=(x{[0-9]+}) code=(y{[A-Z]+})\\n.*";
}

std::string Digits(std::mt19937* rng) {
  std::uniform_int_distribution<int> pick(1, 9999);
  return std::to_string(pick(*rng));
}

std::string Caps(std::mt19937* rng) {
  static const char* kCodes[] = {"OOM", "TIMEOUT", "REFUSED", "EIO"};
  std::uniform_int_distribution<int> pick(0, 3);
  return kCodes[pick(*rng)];
}

/// Inserts `line` (newline-terminated) at a random line boundary of `doc`.
void InsertLine(Document* doc, const std::string& line, std::mt19937* rng) {
  const std::string& text = doc->text();
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i + 1 < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  std::uniform_int_distribution<size_t> pick(0, starts.size() - 1);
  const size_t at = starts[pick(*rng)];
  *doc = Document(text.substr(0, at) + line + text.substr(at));
}

/// Filler documents of lowercase lines (no tag can be spelled).
std::vector<Document> Filler(size_t docs, size_t bytes, uint32_t seed) {
  spanners::workload::FleetOptions o;
  o.num_patterns = 0;
  o.documents = docs;
  o.doc_bytes = bytes;
  o.match_rate = 0;
  o.seed = seed;
  return spanners::workload::MakePatternFleet(o).documents;
}

/// Near-miss line for plan p: carries the tag literal but breaks the
/// pattern. Even kinds keep " code=" (the plan's prefilter passes; its
/// lazy DFA rejects the lowercase code), odd kinds drop it (the
/// prefilter rejects unless another line supplies " code=").
std::string NearMissLine(size_t p, size_t kind, std::mt19937* rng) {
  if (kind % 2 == 0)
    return Tag(p) + " id=" + Digits(rng) + " code=oom\n";
  return Tag(p) + " id=" + Digits(rng) + " status=retry\n";
}

Job FleetJob(std::string name, size_t plans) {
  Job job;
  job.name = std::move(name);
  for (size_t p = 0; p < plans; ++p) {
    job.patterns.push_back(FleetPattern(p));
    job.required_literal.push_back(Tag(p) + " id=");
  }
  return job;
}

void MakeDense(uint32_t seed, Inputs* in) {
  spanners::workload::CorpusOptions land;
  land.documents = kLandDocs;
  land.rows_per_document = kLandRows;
  land.seed = seed * 7919u + 1;
  spanners::workload::CorpusOptions log;
  log.documents = kLogDocs;
  log.rows_per_document = kLogLines;
  log.seed = seed * 7919u + 2;
  in->corpora.push_back(spanners::workload::LandRegistryCorpus(land));
  in->corpus_names.push_back("land-registry");
  in->corpora.push_back(spanners::workload::ServerLogCorpus(log));
  in->corpus_names.push_back("server-log");

  Job seller;
  seller.name = "seller-tax";
  seller.corpus = 0;
  seller.patterns = {spanners::ToPattern(spanners::workload::SellerNameTaxRgx())};
  seller.required_literal = {"Seller: "};
  Job logline;
  logline.name = "log-line";
  logline.corpus = 1;
  logline.patterns = {spanners::ToPattern(spanners::workload::LogLineRgx())};
  logline.required_literal = {""};
  Job query;
  query.name = "log-union-join";
  query.corpus = 1;
  query.patterns = {kLogLeafA, kLogLeafB, kLogLeafC};
  query.query = "join(union(rgx(" + QueryLiteral(kLogLeafA) + "), rgx(" +
                QueryLiteral(kLogLeafB) + ")), rgx(" +
                QueryLiteral(kLogLeafC) + "))";
  in->jobs = {seller, logline, query};
}

void MakeSparse(uint32_t seed, Inputs* in) {
  std::vector<Document> docs =
      Filler(kFleetDocs, kFleetDocBytes, seed * 7919u + 3);
  std::mt19937 rng(seed * 7919u + 4);
  std::uniform_int_distribution<size_t> doc_pick(0, docs.size() - 1);
  std::uniform_int_distribution<size_t> plan_pick(0, kFleetPlans - 1);
  // Exact counts (not per-document coin flips), so every seed carries the
  // same amount of work and only its placement varies.
  std::vector<size_t> order(docs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t k = 0; k < kFleetNeedles; ++k) {
    const size_t p = plan_pick(rng);
    InsertLine(&docs[order[k]],
               Tag(p) + " id=" + Digits(&rng) + " code=" + Caps(&rng) + "\n",
               &rng);
  }
  for (size_t k = 0; k < kFleetNearMisses; ++k)
    InsertLine(&docs[order[kFleetNeedles + k]],
               NearMissLine(plan_pick(rng), k, &rng), &rng);
  in->corpora.push_back(std::move(docs));
  in->corpus_names.push_back("fleet-64");
  in->jobs = {FleetJob("fleet-64", kFleetPlans)};
  in->jobs[0].sample_docs.assign(order.begin(),
                                 order.begin() + kFleetNeedles + 4);
}

void MakeServed(uint32_t seed, Inputs* in) {
  std::vector<Document> docs =
      Filler(kServedDocs, kServedDocBytes, seed * 7919u + 5);
  std::mt19937 rng(seed * 7919u + 6);
  std::vector<size_t> order(docs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  // Exactly 1% of the documents per plan hold that plan's needle line,
  // one short line per document.
  size_t next = 0;
  for (size_t p = 0; p < kServedPlans; ++p)
    for (size_t k = 0; k < kServedNeedlesPerPlan; ++k)
      InsertLine(&docs[order[next++]],
                 Tag(p) + " id=" + Digits(&rng) + " code=" + Caps(&rng) +
                     "\n",
                 &rng);
  // Single-document requests: a fixed share of needle documents (local
  // matches inside KiB-sized documents), the rest non-matching.
  std::vector<size_t> pool;
  for (size_t k = 0; k < kExtractPoolMatching; ++k) pool.push_back(order[k]);
  for (size_t k = 0; k < kExtractPoolOther; ++k)
    pool.push_back(order[next + k]);
  std::shuffle(pool.begin(), pool.end(), rng);
  in->extract_pool = std::move(pool);
  in->corpora.push_back(std::move(docs));
  in->corpus_names.push_back("served-fleet");
  in->jobs = {FleetJob("served-fleet", kServedPlans)};
  // Two needle documents per plan (served-mixed has no near-misses).
  for (size_t k = 0; k < kServedPlans * kServedNeedlesPerPlan; k += 5)
    in->jobs[0].sample_docs.push_back(order[k]);
}

}  // namespace

size_t Inputs::TotalDocs() const {
  size_t n = 0;
  for (const auto& c : corpora) n += c.size();
  return n;
}

size_t Inputs::TotalBytes() const {
  size_t n = 0;
  for (const auto& c : corpora)
    for (const Document& d : c) n += d.text().size();
  return n;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "dense-extract", "sparse-fleet", "served-mixed"};
  return kNames;
}

bool MakeInputs(const std::string& workload, uint32_t seed, Inputs* out) {
  *out = Inputs();
  out->workload = workload;
  if (workload == "dense-extract") {
    MakeDense(seed, out);
  } else if (workload == "sparse-fleet") {
    MakeSparse(seed, out);
  } else if (workload == "served-mixed") {
    MakeServed(seed, out);
  } else {
    return false;
  }
  return true;
}

std::string QueryLiteral(const std::string& pattern) {
  std::string out = "\"";
  for (char c : pattern) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string ChurnPattern(uint64_t k) {
  return ".*" + Tag(k % kServedPlans) + " id=(c" + std::to_string(k) +
         "{[0-9]+}) code=(y{[A-Z]+})\\n.*";
}

}  // namespace perfbench
