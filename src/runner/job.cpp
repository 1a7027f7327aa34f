#include "runner/job.h"

namespace ahfic::runner {

void JobResult::set(const std::string& name, double value) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

double JobResult::get(const std::string& name, double fallback) const {
  for (const auto& m : metrics)
    if (m.first == name) return m.second;
  return fallback;
}

bool JobResult::has(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.first == name) return true;
  return false;
}

void JobContext::noteStats(const spice::AnalyzerStats& s) { stats += s; }

std::uint64_t deriveJobSeed(std::uint64_t baseSeed, std::uint64_t index) {
  std::uint64_t z = baseSeed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t stableKeyHash(const std::string& key) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace ahfic::runner
