#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include <time.h>

#include "util/json.h"

namespace perfbench {

void Report::operation(bool failed) {
  ++attempted_;
  if (failed) ++failed_;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  std::cout << "CHECK FAILED: " << what << "\n";
}

void Report::endToEnd(const std::string& name, double value,
                      const std::string& unit) {
  endToEnd_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, value, unit});
}

std::string Report::resultLine(bool traced) const {
  ahfic::util::JsonValue metrics = ahfic::util::JsonValue::object();
  for (const Metric& m : traced ? layer_ : endToEnd_) {
    ahfic::util::JsonValue entry = ahfic::util::JsonValue::object();
    entry.set("value", std::isfinite(m.value) ? m.value : 0.0);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  ahfic::util::JsonValue doc = ahfic::util::JsonValue::object();
  doc.set("correct", correct_);
  doc.set("attempted", static_cast<double>(attempted_));
  doc.set("failed", static_cast<double>(failed_));
  doc.set("metrics", std::move(metrics));
  return doc.dump();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double supportedTailPercentile(size_t n) {
  for (double q : {99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(n) * (100.0 - q) / 100.0 >= 10.0) return q;
  return 50.0;
}

std::int64_t nowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int64_t cpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double peakRssMb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so
  // getrusage would report the launcher's peak whenever it was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
