#include "util.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void RowDigest::AddRow(std::string_view row) {
  // FNV-1a over 8-byte words (byte tail), then a row separator mix.
  uint64_t h = h_;
  size_t i = 0;
  for (; i + 8 <= row.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, row.data() + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < row.size(); ++i)
    h = (h ^ static_cast<uint8_t>(row[i])) * 0x100000001b3ull;
  h = (h ^ 0x0a5a5a5a5a5a5a5aull ^ row.size()) * 0x9E3779B97F4A7C15ull;
  h_ = h ^ (h >> 31);
  ++rows_;
}

void RowDigest::AddRows(std::string_view rows) {
  size_t start = 0;
  while (start < rows.size()) {
    size_t nl = rows.find('\n', start);
    if (nl == std::string_view::npos) nl = rows.size();
    AddRow(rows.substr(start, nl - start));
    start = nl + 1;
  }
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      m.samples = samples;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

std::string Report::Text(const std::string& prefix) const {
  std::string out;
  for (const Metric& m : metrics_) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s%-44s %14.6g %-8s (n=%llu)\n",
                  prefix.c_str(), m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    out += line;
  }
  return out;
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::string out = "{";
  bool first = true;
  auto emit = [&](const Metric& m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
           FormatDouble(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
           "\"}";
  };
  for (const std::string& n : names)
    if (const Metric* m = Find(n)) emit(*m);
  return out + "}";
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
