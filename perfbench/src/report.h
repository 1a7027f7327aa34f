#pragma once
// What one benchmark run reports: correctness tallies, end-to-end and
// per-layer metrics, and the human-readable lines printed above the
// final JSON result line.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// One attempted operation (runner job, HTTP submission) and whether
  /// it failed.
  void operation(bool failed);
  /// A correctness check: counts as attempted; a failure counts as
  /// failed, clears `correct` and is printed with `what`.
  void check(bool ok, const std::string& what);

  void endToEnd(const std::string& name, double value,
                const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  bool correct() const { return correct_; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// the end-to-end metrics (untraced run) or the per-layer ones (traced).
  std::string resultLine(bool traced) const;

 private:
  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<Metric> endToEnd_;
  std::vector<Metric> layer_;
};

// ---- sample statistics ----

double median(std::vector<double> v);
/// Linear-interpolated percentile (q in [0, 100]) of `v`.
double percentile(std::vector<double> v, double q);
/// Highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// beyond it for `n` samples.
double supportedTailPercentile(size_t n);

/// Wall clock in nanoseconds since an arbitrary process-wide epoch.
std::int64_t nowNs();
/// CPU time this process has used so far, all threads, in ns.
std::int64_t cpuNowNs();
/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb();

}  // namespace perfbench
