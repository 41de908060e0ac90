// Small helpers shared by the benchmark program: clocks, sample statistics,
// the row digest every output check compares, metric reporting, and
// process-level readings (/proc resident memory, CPU count).
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank-with-interpolation quantile of `v` (copied, then sorted);
/// q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Order-sensitive 64-bit digest of rendered rows. Every row is fed
/// without its trailing newline; the digest separates rows itself, so
/// "ab" + "c" and "a" + "bc" differ.
class RowDigest {
 public:
  void AddRow(std::string_view row);
  /// Feeds every newline-terminated row of `rows`.
  void AddRows(std::string_view rows);
  uint64_t value() const { return h_ ^ (rows_ * 0x9E3779B97F4A7C15ull); }
  uint64_t rows() const { return rows_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
  uint64_t rows_ = 0;
};

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Metrics in report order, printed as "name value unit (n=samples)".
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;
  std::string Text(const std::string& prefix) const;
  /// {"name":{"value":v,"unit":"u"},...} over the metrics named in
  /// `names`, in that order.
  std::string Json(const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MB; 0 when
/// /proc cannot be read.
double PeakRssMb(pid_t pid = 0);

/// CPUs this process may run on (sched_getaffinity).
size_t CpuCount();

std::string JsonEscape(std::string_view s);
std::string FormatDouble(double v);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
