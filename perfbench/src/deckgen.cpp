#include "deckgen.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "util/json.h"

namespace perfbench {

namespace {

/// SplitMix64 stream: platform-independent, unlike <random>'s
/// distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  int below(int n) { return static_cast<int>(next() % static_cast<unsigned>(n)); }

 private:
  std::uint64_t state_;
};

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.5g", v);
  return buf;
}

std::string deckBody(const std::string& deck, const std::string& label) {
  ahfic::util::JsonValue doc = ahfic::util::JsonValue::object();
  doc.set("deck", deck);
  doc.set("label", label);
  return doc.dump();
}

/// Model name of a ".MODEL <name> NPN(...)" line.
std::string modelNameOf(const std::string& card) {
  std::istringstream in(card);
  std::string dotModel, name;
  in >> dotModel >> name;
  return name;
}

std::string ceStage(Rng& rng, const std::string& card, int id) {
  const double vcc = rng.uniform(5.0, 9.0);
  const double ic = rng.uniform(0.5e-3, 3e-3);
  const double re = rng.uniform(100.0, 400.0);
  const double vin = 0.8 + ic * re;
  const double rc = 0.35 * vcc / ic;
  std::ostringstream d;
  d << "ce stage " << id << "\n"
    << card << "\n"
    << "VCC vcc 0 " << num(vcc) << "\n"
    << "VIN in 0 DC " << num(vin) << " AC 1\n"
    << "RC vcc out " << num(rc) << "\n"
    << "Q1 out in e " << modelNameOf(card) << "\n"
    << "RE2 e 0 " << num(re) << "\n"
    << ".OP\n"
    << ".AC DEC 5 100k 20G\n"
    << ".NOISE out DEC 5 1k 1G\n"
    << ".END\n";
  return d.str();
}

/// Diode-clamped RC ladder of `sections` stages driven by a pulse:
/// sections + 2 unknowns (input node, ladder nodes, source branch).
std::string ladder(Rng& rng, int sections, int id) {
  const double r = rng.uniform(50.0, 200.0);
  const double c = rng.uniform(0.2e-12, 1e-12);
  const double amp = rng.uniform(0.8, 1.5);
  std::ostringstream d;
  d << "diode-rc ladder " << id << " n=" << sections << "\n"
    << ".MODEL dclamp D(IS=" << num(rng.uniform(0.5e-14, 2e-14))
    << " CJO=0.1p)\n"
    << "VIN in 0 PULSE(0 " << num(amp) << " 0.1n 0.2n 0.2n 2n 5n)\n"
    << "R0 in n1 " << num(r) << "\n";
  for (int k = 1; k <= sections; ++k) {
    if (k < sections)
      d << "R" << k << " n" << k << " n" << k + 1 << " " << num(r) << "\n";
    d << "C" << k << " n" << k << " 0 " << num(c) << "\n"
      << "D" << k << " n" << k << " 0 dclamp\n";
  }
  d << "RL n" << sections << " 0 1k\n"
    << ".OP\n"
    << ".TRAN 0.1n 4n\n"
    << ".END\n";
  return d.str();
}

struct BadDeck {
  std::string code;
  std::string deck;
};

BadDeck badDeck(Rng& rng, int id) {
  const std::string title = "bad deck " + std::to_string(id) + "\n";
  const std::string v = num(rng.uniform(0.5, 5.0));
  switch (rng.below(5)) {
    case 0:
      return {"NET_VSRC_LOOP", title + "V1 a 0 DC " + v + "\nV2 a 0 DC " +
                                   num(rng.uniform(0.5, 5.0)) +
                                   "\nR1 a 0 1k\n.OP\n.END\n"};
    case 1:
      return {"NET_FLOATING_NODE",
              title + "V1 in 0 DC " + v +
                  "\nR1 in a 1k\nC1 a b 1p\nR2 b c " +
                  num(rng.uniform(100.0, 1e4)) + "\nC2 c 0 1p\n.OP\n.END\n"};
    case 2:
      return {"NET_ISRC_CUTSET",
              title + "I1 0 a DC 1m\nI2 a 0 DC " +
                  num(rng.uniform(0.5e-3, 2e-3)) +
                  "\nV1 b 0 DC " + v + "\nR1 b 0 1k\n.OP\n.END\n"};
    case 3:
      return {"MOD_BJT_RANGE",
              title + ".MODEL badnpn NPN(IS=1e-16 BF=100 RB=-" +
                  num(rng.uniform(1.0, 50.0)) +
                  " TF=12p)\nVCC vcc 0 5\nVIN b 0 " + num(rng.uniform(0.6, 0.9)) +
                  "\nQ1 vcc b e badnpn\nRE e 0 1k\n.OP\n.END\n"};
    default:
      return {"PARSE", title + "V1 a 0 DC " + v + "\nR1 a b\nR2 b 0 1k\n"
                                                  ".OP\n.END\n"};
  }
}

}  // namespace

const char* mixKindName(MixKind kind) {
  switch (kind) {
    case MixKind::kCold: return "cold";
    case MixKind::kWarm: return "warm";
    case MixKind::kBad: return "bad";
    case MixKind::kMc: return "mc";
  }
  return "?";
}

DaemonMix::DaemonMix(std::uint64_t seed, std::vector<std::string> modelCards)
    : seed_(seed), cards_(std::move(modelCards)) {}

std::vector<MixRequest> DaemonMix::nextRound() {
  Rng seeder(seed_ ^ 0xDA3E0517C0FFEEull);
  Rng rng(seeder.next() + 0x9E3779B97F4A7C15ull * static_cast<unsigned>(round_ + 1));
  const int coldBefore = coldCount();
  std::vector<MixRequest> out;

  for (int k = 0; k < kColdPerRound; ++k) {
    MixRequest req;
    req.kind = MixKind::kCold;
    req.deckId = coldCount();
    req.points = 1;
    // Two CE stages in five; the ladders alternate between the dense
    // (< 128 unknowns) and the sparse side of the solver cutoff.
    if (k % 5 < 2 && !cards_.empty()) {
      req.family = "ce";
      req.deck = ceStage(rng, cards_[static_cast<size_t>(rng.below(
                                  static_cast<int>(cards_.size())))],
                         req.deckId);
    } else {
      req.family = "ladder";
      const int sections = k % 2 == 0 ? 38 + rng.below(80)      // 40..119
                                      : 138 + rng.below(113);  // 140..252
      req.unknowns = sections + 2;
      req.deck = ladder(rng, sections, req.deckId);
    }
    req.body = deckBody(req.deck, req.family);
    coldDecks_.push_back(req.deck);
    coldFamilies_.push_back(req.family);
    coldUnknowns_.push_back(req.unknowns);
    out.push_back(std::move(req));
  }
  if (coldBefore > 0) {
    for (int k = 0; k < kWarmPerRound; ++k) {
      MixRequest req;
      req.kind = MixKind::kWarm;
      req.deckId = rng.below(coldBefore);
      req.family = coldFamilies_[static_cast<size_t>(req.deckId)];
      req.unknowns = coldUnknowns_[static_cast<size_t>(req.deckId)];
      req.deck = coldDecks_[static_cast<size_t>(req.deckId)];
      req.body = deckBody(req.deck, req.family);
      req.points = 1;
      out.push_back(std::move(req));
    }
  }
  for (int k = 0; k < kBadPerRound; ++k) {
    BadDeck bad = badDeck(rng, round_ * kBadPerRound + k);
    MixRequest req;
    req.kind = MixKind::kBad;
    req.family = "bad";
    req.expectCode = bad.code;
    req.deck = std::move(bad.deck);
    req.body = deckBody(req.deck, req.family);
    out.push_back(std::move(req));
  }
  for (int k = 0; k < kMcPerRound; ++k) {
    ahfic::util::JsonValue params = ahfic::util::JsonValue::object();
    params.set("dies", kMcDies);
    params.set("batch", kMcDies);
    params.set("shape", rng.below(2) == 0 ? "N1.2-12D" : "N1.2-24D");
    // A fresh bias point per submission keeps the job a cache miss.
    params.set("ic", rng.uniform(1e-3, 3e-3));
    ahfic::util::JsonValue doc = ahfic::util::JsonValue::object();
    doc.set("workload", "mc-ft-batch");
    doc.set("params", std::move(params));
    doc.set("label", "mc-ft-batch");
    MixRequest req;
    req.kind = MixKind::kMc;
    req.family = "mc-ft-batch";
    req.body = doc.dump();
    req.points = kMcDies;
    out.push_back(std::move(req));
  }
  // Seeded Fisher-Yates, so kinds interleave within the round.
  for (size_t k = out.size(); k > 1; --k)
    std::swap(out[k - 1], out[static_cast<size_t>(rng.below(static_cast<int>(k)))]);
  ++round_;
  return out;
}

}  // namespace perfbench
