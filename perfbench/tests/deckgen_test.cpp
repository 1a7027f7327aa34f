// Tests of the daemon_mix input generator: the same seed gives the same
// request stream, another seed gives other decks, warm requests repeat
// earlier cold decks byte for byte, good decks lint clean and bad decks
// draw exactly the lint code they are generated for.
//
// Run: ctest --test-dir .bench_build (after building perfbench/).

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "deckgen.h"
#include "lint/netlist.h"
#include "spice/analysis.h"
#include "spice/parser.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what.c_str());
}

const std::vector<std::string> kCards = {
    ".MODEL qa NPN(IS=1e-16 BF=110 VAF=45 RB=200 RE=4 RC=30 CJE=12f "
    "CJC=15f TF=12p)",
    ".MODEL qb NPN(IS=2e-16 BF=90 VAF=40 RB=120 RE=2 RC=20 CJE=24f "
    "CJC=25f TF=12p)"};

std::vector<std::vector<perfbench::MixRequest>> stream(std::uint64_t seed,
                                                       int rounds) {
  perfbench::DaemonMix mix(seed, kCards);
  std::vector<std::vector<perfbench::MixRequest>> out;
  for (int r = 0; r < rounds; ++r) out.push_back(mix.nextRound());
  return out;
}

void sameSeedSameStream() {
  const auto a = stream(7, 4), b = stream(7, 4);
  for (size_t r = 0; r < a.size(); ++r) {
    expect(a[r].size() == b[r].size(), "round sizes match");
    for (size_t k = 0; k < a[r].size() && k < b[r].size(); ++k)
      expect(a[r][k].body == b[r][k].body, "same seed, same body");
  }
}

void otherSeedOtherDecks() {
  const auto a = stream(7, 2), b = stream(8, 2);
  std::set<std::string> bodiesA;
  for (const auto& round : a)
    for (const auto& req : round)
      if (req.kind == perfbench::MixKind::kCold) bodiesA.insert(req.body);
  int shared = 0;
  for (const auto& round : b)
    for (const auto& req : round)
      if (req.kind == perfbench::MixKind::kCold) shared += bodiesA.count(req.body) > 0;
  expect(shared == 0, "another seed shares no cold deck");
}

void roundShapeAndWarmTwins() {
  perfbench::DaemonMix mix(3, kCards);
  std::set<std::string> seen;
  for (int r = 0; r < 5; ++r) {
    const int coldBefore = mix.coldCount();
    const auto round = mix.nextRound();
    int cold = 0, warm = 0, bad = 0, mc = 0, dense = 0, sparse = 0;
    for (const auto& req : round) {
      switch (req.kind) {
        case perfbench::MixKind::kCold:
          ++cold;
          expect(seen.insert(req.deck).second, "cold decks are unique");
          if (req.family == "ladder") (req.unknowns < 128 ? dense : sparse)++;
          break;
        case perfbench::MixKind::kWarm:
          ++warm;
          expect(req.deckId < coldBefore, "warm twin is from an earlier round");
          expect(req.deck == mix.coldDeck(req.deckId), "warm repeats its twin");
          break;
        case perfbench::MixKind::kBad: ++bad; break;
        case perfbench::MixKind::kMc: ++mc; break;
      }
    }
    expect(cold == perfbench::kColdPerRound, "cold count per round");
    expect(warm == (r == 0 ? 0 : perfbench::kWarmPerRound),
           "warm count per round");
    expect(bad == perfbench::kBadPerRound && mc == perfbench::kMcPerRound,
           "bad and mc counts per round");
    expect(dense > 0 && sparse > 0, "ladders on both sides of 128 unknowns");
  }
}

void decksLintAsGenerated() {
  for (const auto& round : stream(11, 6)) {
    for (const auto& req : round) {
      if (req.deck.empty()) continue;
      const auto report = ahfic::lint::lintDeckText(req.deck);
      if (req.kind == perfbench::MixKind::kBad) {
        expect(report.hasCode(req.expectCode),
               "bad deck draws " + req.expectCode);
        expect(report.hasErrors(), "bad deck is rejected");
        continue;
      }
      expect(!report.hasErrors(), "good deck lints clean: " + req.family);
      if (req.family == "ladder") {
        auto deck = ahfic::spice::parseDeck(req.deck);
        ahfic::spice::Analyzer an(deck.circuit);
        expect(an.unknownCount() == req.unknowns,
               "ladder unknown count " + std::to_string(an.unknownCount()) +
                   " vs " + std::to_string(req.unknowns));
      }
    }
  }
}

}  // namespace

int main() {
  sameSeedSameStream();
  otherSeedOtherDecks();
  roundShapeAndWarmTwins();
  decksLintAsGenerated();
  std::printf("%s (%d failure(s))\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
