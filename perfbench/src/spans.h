#pragma once
// In-memory spans of the traced run and the per-layer self-time they
// imply.
//
// Spans are recorded from the benchmark's own calls into the program
// (around Job::run closures, BatchRunner::run, HTTP round trips, ...):
// name = layer, start/end on one steady clock, the root they belong to
// (one design turn or one daemon request) and a priority. Self time is
// computed per root by sweeping its interval: every instant goes to the
// highest-priority spans active at that instant, split equally among
// them (parallel jobs share the wall time they overlap in), and instants
// no span covers go to "other". A child therefore gets a higher priority
// than its parent. Layer times plus "other" add up to the root's
// duration exactly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string layer;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int root = -1;    ///< index of the root span (-1 for a root itself)
  int priority = 1;
};

class SpanLog {
 public:
  /// Adds a root (a turn or a request); returns its index.
  int root(const std::string& name, std::int64_t startNs, std::int64_t endNs);
  void add(int root, const std::string& layer, std::int64_t startNs,
           std::int64_t endNs, int priority);

  size_t rootCount() const { return roots_.size(); }

  /// Self time per layer in ms, summed over every root, plus "other".
  std::map<std::string, double> selfTimeMs() const;
  /// Sum of the root durations in ms.
  double rootTimeMs() const;

  /// Writes the spans as JSON ({"spans": [{name, layer, start_us, end_us,
  /// parent}]}); parent is the root's index, -1 for roots.
  void writeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> roots_;
  std::vector<std::string> rootNames_;
};

}  // namespace perfbench
