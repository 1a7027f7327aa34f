// Stamp-layout replay (spice/stamp.h): every device type, loaded through
// its recorded layout, writes bit for bit what a fresh recording pass
// writes, across DC/transient switches, AC and a pattern growth; and a
// replay whose length diverges from the recording falls back to
// resolving positions through the pattern instead of reading past it.

#include <gtest/gtest.h>

#include <complex>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spice/analysis.h"
#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/device.h"
#include "spice/parser.h"
#include "spice/stamp.h"

namespace sp = ahfic::spice;

namespace {

// One instance of every device type: R, C, L, V, I, E, G, F, H, D, Q, M,
// with parasitic resistances and charges switched on so the conditional
// stamps (internal nodes, companion branches) all take part.
constexpr const char* kDeck =
    "stamp layout audit\n"
    "V1 in 0 1\n"
    "I1 0 n1 1m\n"
    "R1 in n1 1k\n"
    "C1 n1 0 1p\n"
    "L1 n1 n2 1n\n"
    "R2 n2 0 50\n"
    "E1 e1 0 in n1 2\n"
    "G1 g1 0 in 0 1m\n"
    "F1 f1 0 V1 2\n"
    "H1 h1 0 V1 100\n"
    "D1 n2 d1 dmod\n"
    "Q1 c b e sub qmod 2\n"
    "M1 md mg ms mb nmod W=20u L=1u\n"
    ".model dmod D(IS=1e-14 RS=5 CJO=1p TT=1n)\n"
    ".model qmod NPN(IS=1e-16 BF=100 RB=50 RC=10 RE=2 CJE=1p CJC=0.5p "
    "XCJC=0.6 CJS=0.3p TF=10p)\n"
    ".model nmod NMOS(VTO=0.7 KP=1e-4 RD=10 RS=10 CGSO=1e-10 CGDO=1e-10 "
    "CGBO=1e-10 CBD=1e-15 CBS=1e-15)\n";

/// A parsed copy of the deck with its unknown/state layout assigned.
struct Twin {
  Twin()
      : deck(std::make_unique<sp::Deck>(sp::parseDeck(kDeck))),
        an(deck->circuit) {}
  sp::Circuit& ckt() { return deck->circuit; }
  int states() {
    int n = 0;
    for (const auto& dev : ckt().devices()) n += dev->stateCount();
    return n;
  }

  std::unique_ptr<sp::Deck> deck;
  sp::Analyzer an;
};

/// The real pattern the engine would prime: DC and transient positions.
sp::CsrPattern primeReal(Twin& t) {
  std::vector<std::pair<int, int>> entries;
  sp::PatternStamper ps(entries);
  std::vector<double> zeros(static_cast<size_t>(t.an.unknownCount()), 0.0);
  std::vector<double> st(static_cast<size_t>(t.states()), 0.0);
  const sp::Solution x(&zeros);
  sp::LoadContext ctx;
  ctx.state = &st;
  ctx.prevState = &st;
  ctx.prevDstate = &st;
  for (const double c0 : {0.0, 1.0}) {
    ctx.c0 = c0;
    for (const auto& dev : t.ckt().devices()) dev->load(ps, x, ctx);
  }
  sp::CsrPattern pat;
  pat.build(t.an.unknownCount(), std::move(entries));
  return pat;
}

sp::CsrPattern primeAc(Twin& t) {
  std::vector<std::pair<int, int>> entries;
  sp::AcPatternStamper ps(entries);
  std::vector<double> zeros(static_cast<size_t>(t.an.unknownCount()), 0.0);
  const sp::Solution x(&zeros);
  for (const auto& dev : t.ckt().devices()) dev->loadAc(ps, x, 1e9);
  sp::CsrPattern pat;
  pat.build(t.an.unknownCount(), std::move(entries));
  return pat;
}

/// A candidate solution that differs per step so replays see new values.
std::vector<double> candidate(int n, int step) {
  std::vector<double> x(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<size_t>(i)] = 0.05 * ((i * 7 + step * 3) % 17) - 0.3;
  return x;
}

template <typename V>
struct Stamped {
  std::vector<V> vals, rhs;
};

/// One full real load of every device (DC when c0 == 0, else transient).
Stamped<double> loadReal(Twin& t, const sp::CsrPattern& pat, double c0,
                         int step) {
  const int n = t.an.unknownCount();
  Stamped<double> out{std::vector<double>(pat.nonzeros(), 0.0),
                      std::vector<double>(static_cast<size_t>(n), 0.0)};
  const std::vector<double> xv = candidate(n, step);
  const sp::Solution x(&xv);
  std::vector<double> st(static_cast<size_t>(t.states()), 0.0);
  std::vector<double> stPrev(st.size()), dstPrev(st.size());
  for (size_t i = 0; i < st.size(); ++i) {
    stPrev[i] = 1e-13 * static_cast<double>(i + 1);
    dstPrev[i] = 1e-4 * static_cast<double>(i % 3);
  }
  sp::LoadContext ctx;
  ctx.mode = c0 != 0.0 ? sp::AnalysisMode::kTransient
                       : sp::AnalysisMode::kDcOp;
  ctx.time = 1e-10;
  ctx.c0 = c0;
  ctx.trapFactor = c0 != 0.0 ? 1.0 : 0.0;
  ctx.state = &st;
  ctx.prevState = &stPrev;
  ctx.prevDstate = &dstPrev;
  std::vector<std::pair<int, int>> pending;
  sp::CsrStamper cs(pat, out.vals, out.rhs, &pending);
  for (const auto& dev : t.ckt().devices()) {
    dev->beginSolve(x);  // same limiting history for every twin
    dev->load(cs, x, ctx);
  }
  EXPECT_TRUE(pending.empty());
  return out;
}

Stamped<std::complex<double>> loadAc(Twin& t, const sp::CsrPattern& pat,
                                     int step) {
  const int n = t.an.unknownCount();
  Stamped<std::complex<double>> out{
      std::vector<std::complex<double>>(pat.nonzeros()),
      std::vector<std::complex<double>>(static_cast<size_t>(n))};
  const std::vector<double> xv = candidate(n, step);
  const sp::Solution x(&xv);
  std::vector<std::pair<int, int>> pending;
  sp::CsrAcStamper cs(pat, out.vals, out.rhs, &pending);
  for (const auto& dev : t.ckt().devices()) dev->loadAc(cs, x, 2e9);
  EXPECT_TRUE(pending.empty());
  return out;
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}
std::string hex(std::complex<double> v) {
  return hex(v.real()) + "," + hex(v.imag());
}

/// Bitwise equality of two stamped systems, naming the first mismatch.
template <typename V>
void expectHexIdentical(const Stamped<V>& got, const Stamped<V>& want,
                        const std::string& what) {
  ASSERT_EQ(got.vals.size(), want.vals.size()) << what;
  ASSERT_EQ(got.rhs.size(), want.rhs.size()) << what;
  for (size_t i = 0; i < got.vals.size(); ++i)
    ASSERT_EQ(std::memcmp(&got.vals[i], &want.vals[i], sizeof(V)), 0)
        << what << ": vals[" << i << "] " << hex(got.vals[i]) << " vs "
        << hex(want.vals[i]);
  for (size_t i = 0; i < got.rhs.size(); ++i)
    ASSERT_EQ(std::memcmp(&got.rhs[i], &want.rhs[i], sizeof(V)), 0)
        << what << ": rhs[" << i << "] " << hex(got.rhs[i]) << " vs "
        << hex(want.rhs[i]);
}

/// The first position (row-major) outside the pattern.
std::pair<int, int> firstHole(const sp::CsrPattern& pat) {
  for (int r = 0; r < pat.size(); ++r)
    for (int c = 0; c < pat.size(); ++c)
      if (pat.slot(r, c) < 0) return {r, c};
  ADD_FAILURE() << "pattern is dense";
  return {0, 0};
}

}  // namespace

TEST(StampLayout, ReplayMatchesFreshRecordingForEveryDevice) {
  Twin reused;
  sp::CsrPattern pat = primeReal(reused);
  sp::CsrPattern patAc = primeAc(reused);

  // DC -> transient -> DC -> transient, twice per mode so the second of
  // each replays; then the same again after both patterns grow.
  const double c0s[] = {0.0, 2e11, 0.0, 2e11, 2e11, 0.0, 0.0};
  for (int round = 0; round < 2; ++round) {
    int step = 0;
    for (const double c0 : c0s) {
      Twin fresh;  // never stamped: its load is a recording pass
      const std::string what = "round " + std::to_string(round) + " step " +
                               std::to_string(step) +
                               (c0 != 0.0 ? " (tran)" : " (dc)");
      expectHexIdentical(loadReal(reused, pat, c0, step),
                         loadReal(fresh, pat, c0, step), what);
      ++step;
    }
    for (int k = 0; k < 2; ++k) {
      Twin fresh;
      expectHexIdentical(loadAc(reused, patAc, k), loadAc(fresh, patAc, k),
                         "round " + std::to_string(round) + " ac " +
                             std::to_string(k));
    }
    // Growth shifts every slot: the reused twin's layouts must notice the
    // new epoch and record again.
    const std::uint64_t before = pat.epoch();
    ASSERT_EQ(pat.grow({firstHole(pat)}), 1u);
    ASSERT_NE(pat.epoch(), before);
    ASSERT_EQ(patAc.grow({firstHole(patAc)}), 1u);
  }
}

namespace {

/// Drives a SlotWriter directly: stamps `entries[i]` with value i + 1.
void stampSequence(const sp::CsrPattern& pat, sp::StampLayout& layout,
                   const std::vector<std::pair<int, int>>& entries,
                   std::vector<double>& vals) {
  std::vector<double> rhs(static_cast<size_t>(pat.size()), 0.0);
  vals.assign(pat.nonzeros(), 0.0);
  sp::CsrStamper cs(pat, vals, rhs);
  sp::SlotWriter w(cs, layout);
  for (size_t i = 0; i < entries.size(); ++i)
    w.addA(entries[i].first, entries[i].second,
           static_cast<double>(i + 1));
}

/// The same stamps through the plain CSR stamper (no layout at all).
std::vector<double> reference(const sp::CsrPattern& pat,
                              const std::vector<std::pair<int, int>>& e) {
  std::vector<double> vals(pat.nonzeros(), 0.0);
  std::vector<double> rhs(static_cast<size_t>(pat.size()), 0.0);
  sp::CsrStamper cs(pat, vals, rhs);
  for (size_t i = 0; i < e.size(); ++i)
    cs.addA(e[i].first, e[i].second, static_cast<double>(i + 1));
  return vals;
}

}  // namespace

TEST(StampLayout, DivergentReplayLengthFallsBack) {
  // Dense 4x4 pattern; unknown ids are 1-based, 0 is ground.
  std::vector<std::pair<int, int>> all;
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) all.emplace_back(r, c);
  sp::CsrPattern pat;
  pat.build(4, all);

  const std::vector<std::pair<int, int>> six = {{1, 1}, {1, 2}, {0, 2},
                                                {2, 2}, {3, 4}, {4, 3}};
  const std::vector<std::pair<int, int>> three(six.begin(), six.begin() + 3);
  // Same first three entries, different tail: a replay that read the
  // stale slots of `six` past a three-entry recording would land these
  // values in the wrong positions.
  const std::vector<std::pair<int, int>> otherSix = {
      {1, 1}, {1, 2}, {0, 2}, {4, 4}, {2, 1}, {3, 3}};

  sp::StampLayout layout;
  std::vector<double> vals;
  stampSequence(pat, layout, six, vals);  // records
  EXPECT_TRUE(layout.complete);
  ASSERT_EQ(layout.slots.size(), 6u);
  EXPECT_EQ(layout.slots[2], sp::kStampSlotGround);
  stampSequence(pat, layout, six, vals);  // replays
  EXPECT_EQ(vals, reference(pat, six));
  EXPECT_TRUE(layout.complete);

  // Ends short: the written prefix is right, the layout is dropped, and
  // the next load re-records at the new length.
  stampSequence(pat, layout, three, vals);
  EXPECT_EQ(vals, reference(pat, three));
  EXPECT_FALSE(layout.complete);
  stampSequence(pat, layout, three, vals);
  EXPECT_TRUE(layout.complete);
  EXPECT_EQ(layout.slots.size(), 3u);
  EXPECT_EQ(vals, reference(pat, three));

  // Runs past the three-entry recording: the tail resolves through the
  // pattern, never through the stale slots behind the recording.
  stampSequence(pat, layout, otherSix, vals);
  EXPECT_EQ(vals, reference(pat, otherSix));
  EXPECT_FALSE(layout.complete);
  stampSequence(pat, layout, otherSix, vals);  // records afresh
  EXPECT_TRUE(layout.complete);
  EXPECT_EQ(layout.slots.size(), 6u);
  EXPECT_EQ(vals, reference(pat, otherSix));
  stampSequence(pat, layout, otherSix, vals);  // and replayed
  EXPECT_EQ(vals, reference(pat, otherSix));

  // A new pattern revision invalidates the recording outright.
  ASSERT_EQ(pat.grow({{0, 0}}), 0u);  // already present: same epoch
  EXPECT_TRUE(layout.complete);
  sp::CsrPattern other;
  other.build(4, all);
  stampSequence(other, layout, six, vals);
  EXPECT_EQ(vals, reference(other, six));
  EXPECT_EQ(layout.epoch, other.epoch());
}
