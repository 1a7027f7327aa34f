#include "spans.h"

#include <algorithm>
#include <fstream>

#include "util/error.h"
#include "util/json.h"

namespace perfbench {

int SpanLog::root(const std::string& name, std::int64_t startNs,
                  std::int64_t endNs) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({"other", startNs, endNs, -1, 0});
  roots_.push_back(index);
  rootNames_.push_back(name);
  return index;
}

void SpanLog::add(int root, const std::string& layer, std::int64_t startNs,
                  std::int64_t endNs, int priority) {
  spans_.push_back({layer, startNs, endNs, root, priority});
}

std::map<std::string, double> SpanLog::selfTimeMs() const {
  std::map<int, std::vector<const Span*>> children;
  for (const Span& s : spans_)
    if (s.root >= 0) children[s.root].push_back(&s);

  std::map<std::string, double> out;
  out["other"] = 0.0;
  for (const int r : roots_) {
    const Span& root = spans_[static_cast<size_t>(r)];
    const std::vector<const Span*>& kids = children[r];
    std::vector<std::int64_t> cuts = {root.startNs, root.endNs};
    for (const Span* s : kids) {
      cuts.push_back(std::clamp(s->startNs, root.startNs, root.endNs));
      cuts.push_back(std::clamp(s->endNs, root.startNs, root.endNs));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<const Span*> active;
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      const std::int64_t a = cuts[k], b = cuts[k + 1];
      active.clear();
      int best = 0;
      for (const Span* s : kids) {
        if (s->startNs > a || s->endNs < b) continue;
        if (s->priority > best) {
          best = s->priority;
          active.clear();
        }
        if (s->priority == best) active.push_back(s);
      }
      const double ms = static_cast<double>(b - a) / 1e6;
      if (active.empty()) {
        out["other"] += ms;
        continue;
      }
      const double share = ms / static_cast<double>(active.size());
      for (const Span* s : active) out[s->layer] += share;
    }
  }
  return out;
}

double SpanLog::rootTimeMs() const {
  double total = 0.0;
  for (const int r : roots_) {
    const Span& s = spans_[static_cast<size_t>(r)];
    total += static_cast<double>(s.endNs - s.startNs) / 1e6;
  }
  return total;
}

void SpanLog::writeJson(const std::string& path) const {
  using ahfic::util::JsonValue;
  JsonValue arr = JsonValue::array();
  size_t nextRoot = 0;
  for (size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    JsonValue j = JsonValue::object();
    const bool isRoot = s.root < 0;
    j.set("name", isRoot ? rootNames_[nextRoot++] : s.layer);
    j.set("layer", s.layer);
    j.set("start_us", static_cast<double>(s.startNs) / 1e3);
    j.set("end_us", static_cast<double>(s.endNs) / 1e3);
    j.set("parent", s.root);
    arr.push(std::move(j));
  }
  JsonValue doc = JsonValue::object();
  doc.set("schema", "perfbench-spans-v1");
  doc.set("spans", std::move(arr));
  std::ofstream f(path);
  if (!f) throw ahfic::Error("cannot write trace file " + path);
  f << doc.dump() << "\n";
}

}  // namespace perfbench
