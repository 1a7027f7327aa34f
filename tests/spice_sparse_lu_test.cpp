#include "spice/sparse_lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "spice/analysis.h"
#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/diode.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "support/dense_oracle.h"
#include "util/numeric.h"

namespace sp = ahfic::spice;
namespace obs = ahfic::obs;
namespace oracle = ahfic::oracle;
namespace u = ahfic::util;

namespace {

/// A random sparse pattern with a full diagonal plus `extra` off-diagonal
/// positions, mirrored so the symbolic ordering sees a symmetric
/// structure (as MNA stamps produce).
sp::CsrPattern randomPattern(int n, int extra, u::Rng& rng) {
  std::vector<std::pair<int, int>> entries;
  for (int k = 0; k < extra; ++k) {
    const int r = static_cast<int>(rng.next(static_cast<std::uint64_t>(n)));
    const int c = static_cast<int>(rng.next(static_cast<std::uint64_t>(n)));
    entries.emplace_back(r, c);
    entries.emplace_back(c, r);
  }
  sp::CsrPattern pat;
  pat.build(n, std::move(entries));
  return pat;
}

template <typename T>
T makeValue(u::Rng& rng);
template <>
double makeValue<double>(u::Rng& rng) {
  return rng.uniform(-2.0, 2.0);
}
template <>
std::complex<double> makeValue<std::complex<double>>(u::Rng& rng) {
  return {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
}

/// Fills slot-ordered values: random off-diagonals with a diagonally
/// dominant diagonal, so the system is comfortably nonsingular.
template <typename T>
void fillValues(const sp::CsrPattern& pat, std::vector<T>& vals,
                u::Rng& rng) {
  vals.assign(pat.nonzeros(), T{});
  for (size_t s = 0; s < pat.nonzeros(); ++s) vals[s] = makeValue<T>(rng);
  for (int r = 0; r < pat.size(); ++r) {
    double rowSum = 0.0;
    for (int p = pat.rowPtr()[static_cast<size_t>(r)];
         p < pat.rowPtr()[static_cast<size_t>(r) + 1]; ++p)
      rowSum += std::abs(vals[static_cast<size_t>(p)]);
    const int d = pat.slot(r, r);
    vals[static_cast<size_t>(d)] += T(rowSum + 1.0);
  }
}

/// Dense mirror of (pattern, values) for the oracle solve.
template <typename T>
oracle::DenseMatrix<T> toDense(const sp::CsrPattern& pat,
                           const std::vector<T>& vals) {
  oracle::DenseMatrix<T> a(pat.size(), pat.size());
  for (int r = 0; r < pat.size(); ++r)
    for (int p = pat.rowPtr()[static_cast<size_t>(r)];
         p < pat.rowPtr()[static_cast<size_t>(r) + 1]; ++p)
      a.at(r, pat.colIdx()[static_cast<size_t>(p)]) +=
          vals[static_cast<size_t>(p)];
  return a;
}

template <typename T>
std::vector<T> randomRhs(int n, u::Rng& rng) {
  std::vector<T> b(static_cast<size_t>(n));
  for (auto& v : b) v = makeValue<T>(rng);
  return b;
}

/// Diode-RC ladder shared by the backend and oracle tests; the diodes
/// keep the system nonlinear so Newton actually iterates.
void buildLadder(sp::Circuit& ckt, int stages) {
  const int in = ckt.node("in");
  ckt.add<sp::VSource>("V1", in, 0,
                       std::make_unique<sp::SinWaveform>(1.0, 0.5, 1e6),
                       1.0);
  sp::DiodeModel dm;
  dm.is = 1e-14;
  dm.cj0 = 1e-12;
  dm.rs = 10.0;
  int prev = in;
  for (int k = 0; k < stages; ++k) {
    const int n = ckt.node("n" + std::to_string(k));
    ckt.add<sp::Resistor>("R" + std::to_string(k), prev, n, 1e3);
    ckt.add<sp::Capacitor>("C" + std::to_string(k), n, 0, 1e-12);
    if (k % 3 == 0)
      ckt.add<sp::Diode>("D" + std::to_string(k), ckt, n, 0, dm);
    prev = n;
  }
}

}  // namespace

TEST(SparseLu, MatchesDenseOnRandomRealSystems) {
  for (int n : {3, 12, 40, 90}) {
    for (int rep = 0; rep < 4; ++rep) {
      u::Rng rng(static_cast<std::uint64_t>(n * 131 + rep));
      auto pat = randomPattern(n, 3 * n, rng);
      std::vector<double> vals;
      fillValues(pat, vals, rng);
      const auto b = randomRhs<double>(n, rng);

      sp::SparseLU<double> lu;
      lu.analyze(pat);
      ASSERT_EQ(lu.factor(vals), sp::SparseLU<double>::FactorOutcome::
                                     kFullFactor);
      std::vector<double> x;
      lu.solve(b, x);

      const auto xd = oracle::solveDense(toDense(pat, vals), b);
      for (int i = 0; i < n; ++i)
        EXPECT_NEAR(x[static_cast<size_t>(i)], xd[static_cast<size_t>(i)],
                    1e-10)
            << "n=" << n << " rep=" << rep << " i=" << i;
    }
  }
}

TEST(SparseLu, MatchesDenseOnRandomComplexSystems) {
  using C = std::complex<double>;
  for (int n : {4, 25, 70}) {
    u::Rng rng(static_cast<std::uint64_t>(n * 977));
    auto pat = randomPattern(n, 3 * n, rng);
    std::vector<C> vals;
    fillValues(pat, vals, rng);
    const auto b = randomRhs<C>(n, rng);

    sp::SparseLU<C> lu;
    lu.analyze(pat);
    ASSERT_NE(lu.factor(vals), sp::SparseLU<C>::FactorOutcome::kSingular);
    std::vector<C> x;
    lu.solve(b, x);

    const auto xd = oracle::solveDense(toDense(pat, vals), b);
    for (int i = 0; i < n; ++i)
      EXPECT_LT(std::abs(x[static_cast<size_t>(i)] -
                         xd[static_cast<size_t>(i)]),
                1e-10)
          << "n=" << n << " i=" << i;
  }
}

TEST(SparseLu, RejectsSingularSystem) {
  // Row 2 = 2 * row 1 on a shared pattern.
  sp::CsrPattern pat;
  pat.build(3, {{0, 1}, {1, 0}, {1, 2}, {2, 0}, {2, 2}, {0, 2}, {2, 1}});
  std::vector<double> vals(pat.nonzeros(), 0.0);
  auto set = [&](int r, int c, double v) {
    vals[static_cast<size_t>(pat.slot(r, c))] = v;
  };
  set(0, 0, 1.0);
  set(0, 1, 2.0);
  set(0, 2, 3.0);
  set(1, 0, 1.0);
  set(1, 1, 2.0);
  set(1, 2, 3.0);
  set(2, 0, 5.0);
  set(2, 1, -1.0);
  set(2, 2, 0.5);

  sp::SparseLU<double> lu;
  lu.analyze(pat);
  EXPECT_EQ(lu.factor(vals),
            sp::SparseLU<double>::FactorOutcome::kSingular);
  // A singular outcome invalidates the recorded factorization: the next
  // factor of a good matrix must be a fresh full factorization.
  set(1, 1, 7.0);
  EXPECT_EQ(lu.factor(vals),
            sp::SparseLU<double>::FactorOutcome::kFullFactor);
}

TEST(SparseLu, RefactorReusesPatternAcrossValueChanges) {
  const int n = 30;
  u::Rng rng(42);
  auto pat = randomPattern(n, 2 * n, rng);
  std::vector<double> vals;
  sp::SparseLU<double> lu;
  lu.analyze(pat);

  for (int rep = 0; rep < 5; ++rep) {
    fillValues(pat, vals, rng);
    const auto outcome = lu.factor(vals);
    if (rep == 0)
      EXPECT_EQ(outcome, sp::SparseLU<double>::FactorOutcome::kFullFactor);
    else
      EXPECT_EQ(outcome, sp::SparseLU<double>::FactorOutcome::kRefactor);

    const auto b = randomRhs<double>(n, rng);
    std::vector<double> x;
    lu.solve(b, x);
    const auto xd = oracle::solveDense(toDense(pat, vals), b);
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(x[static_cast<size_t>(i)], xd[static_cast<size_t>(i)],
                  1e-10)
          << "rep=" << rep;
  }
  EXPECT_EQ(lu.stats().fullFactors, 1);
  EXPECT_EQ(lu.stats().refactors, 4);
}

TEST(SparseLu, TopologyChangeInvalidatesAnalysis) {
  u::Rng rng(7);
  auto pat = randomPattern(10, 12, rng);
  sp::SparseLU<double> lu;
  lu.analyze(pat);
  EXPECT_TRUE(lu.analyzedFor(pat.epoch()));

  // Growing the pattern with a genuinely new position bumps the epoch and
  // must invalidate the bound analysis...
  const auto before = pat.epoch();
  ASSERT_GT(pat.grow({{0, 9}, {9, 0}}), 0u);
  EXPECT_NE(pat.epoch(), before);
  EXPECT_FALSE(lu.analyzedFor(pat.epoch()));

  // ... while growth with only already-present positions keeps the epoch
  // (slots are stable, caches stay valid).
  const auto stable = pat.epoch();
  EXPECT_EQ(pat.grow({{0, 9}, {0, 0}}), 0u);
  EXPECT_EQ(pat.epoch(), stable);

  // Re-analyzing the grown pattern restarts the full/refactor cycle.
  lu.analyze(pat);
  std::vector<double> vals;
  fillValues(pat, vals, rng);
  EXPECT_EQ(lu.factor(vals),
            sp::SparseLU<double>::FactorOutcome::kFullFactor);
  EXPECT_EQ(lu.factor(vals),
            sp::SparseLU<double>::FactorOutcome::kRefactor);
}

TEST(SparseLu, ThrowsWhenFactoredBeforeAnalyze) {
  sp::SparseLU<double> lu;
  EXPECT_THROW(lu.factor(std::vector<double>{1.0}), ahfic::Error);
}

TEST(SparseBackend, AutoSelectsByUnknownCount) {
  // Even a 7-unknown circuit runs every analysis on the CSR SparseLU, so
  // each entry point's stats window (on a fresh analyzer) reports a
  // pivoting factorization.
  const auto freqs = sp::logspace(1e3, 1e9, 2);
  for (const std::string analysis : {"op", "dc", "tran", "ac", "noise"}) {
    sp::Circuit ckt;
    buildLadder(ckt, 3);
    const int out = ckt.node("out");
    ckt.add<sp::Resistor>("Rload", ckt.findNode("n2"), out, 1e3);
    ckt.add<sp::Capacitor>("Cload", out, 0, 1e-12);
    sp::Analyzer an(ckt);
    ASSERT_EQ(an.unknownCount(), 7);
    if (analysis == "op") {
      an.op();
    } else if (analysis == "dc") {
      an.dcSweep("V1", 0.0, 1.0, 0.5);
    } else if (analysis == "tran") {
      an.transient(2e-7, 1e-8);
    } else {
      const auto x = an.op();
      if (analysis == "ac")
        an.ac(freqs, x);
      else
        an.noise(freqs, "out", x);
    }
    EXPECT_GT(an.stats().sparseFullFactors, 0) << analysis;
  }
}

TEST(SparseBackend, MatchesDenseAcrossAnalyses) {
  // The sparse engine against the dense-LU oracle engine on twin
  // circuits: same Newton formulation, independent linear algebra.
  sp::Circuit cd, cs;
  buildLadder(cd, 40);
  buildLadder(cs, 40);
  oracle::DenseEngine dense(cd);
  sp::Analyzer as(cs);

  // Operating point.
  const auto xd = dense.op();
  const auto xs = as.op();
  ASSERT_EQ(xd.size(), xs.size());
  for (size_t i = 0; i < xd.size(); ++i)
    EXPECT_NEAR(xs[i], xd[i], 1e-9) << "op unknown " << i;
  EXPECT_GT(as.stats().sparseRefactors, 0);

  // Transient: the oracle replays the sparse run's accepted time points.
  const auto ts = as.transient(5e-7, 1e-8);
  const auto td = dense.transient(ts.time);
  ASSERT_EQ(td.size(), ts.values.size());
  for (size_t k = 0; k < td.size(); ++k)
    for (size_t i = 0; i < td[k].size(); ++i)
      EXPECT_NEAR(ts.values[k][i], td[k][i], 1e-8)
          << "tran point " << k << " unknown " << i;

  // AC sweep (complex path).
  const auto freqs = sp::logspace(1e3, 1e9, 4);
  const auto fs = as.ac(freqs, xs);
  for (size_t k = 0; k < freqs.size(); ++k) {
    const auto fd = dense.ac(xd, freqs[k]);
    for (size_t i = 0; i < fd.size(); ++i)
      EXPECT_LT(std::abs(fs.values[k][i] - fd[i]), 1e-9)
          << "ac point " << k << " unknown " << i;
  }

  // Noise (many solves per factorization): output PSD from the oracle's
  // transfer impedance of every device noise source.
  const int outNode = cd.findNode("n1");
  const sp::Solution sop(&xd);
  std::vector<sp::NoiseSourceDesc> sources;
  for (const auto& dev : cd.devices())
    dev->appendNoise(sources, sop, cd.temperatureC() + 273.15);
  const auto ns = as.noise(freqs, "n1", xs);
  ASSERT_EQ(ns.outputPsd.size(), freqs.size());
  for (size_t k = 0; k < freqs.size(); ++k) {
    const auto sys = dense.acSystem(xd, freqs[k]);
    double psd = 0.0;
    for (const auto& src : sources) {
      std::vector<std::complex<double>> rhs(xd.size());
      if (src.a > 0) rhs[static_cast<size_t>(src.a - 1)] += 1.0;
      if (src.b > 0) rhs[static_cast<size_t>(src.b - 1)] -= 1.0;
      psd += std::norm(sys.solve(rhs)[static_cast<size_t>(outNode - 1)]) *
             src.psdAt(freqs[k]);
    }
    EXPECT_LT(std::abs(ns.outputPsd[k] - psd) / std::max(1e-300, psd), 1e-9)
        << "noise point " << k;
  }
}

TEST(SparseBackend, NoPatternInsertsAfterPriming) {
  // The acceptance property of the stamp-memo design: once the priming
  // pass has built the pattern, steady-state Newton iteration performs
  // zero pattern insertions — every stamp lands on a memoized slot.
  const bool wasEnabled = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  const auto before = obs::metrics().snapshot();

  sp::Circuit ckt;
  buildLadder(ckt, 60);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  EXPECT_EQ(an.stats().sparsePatternInserts, 0);
  EXPECT_EQ(an.stats().sparseFullFactors, 1);
  EXPECT_GT(an.stats().sparseRefactors, 0);

  an.transient(2e-7, 1e-8);
  EXPECT_EQ(an.stats().sparsePatternInserts, 0);

  an.ac(sp::logspace(1e3, 1e9, 3), x);
  EXPECT_EQ(an.stats().sparsePatternInserts, 0);

  const auto delta = obs::metrics().snapshot().since(before);
  obs::setMetricsEnabled(wasEnabled);
  EXPECT_EQ(delta.counterValue("spice.sparse.pattern_inserts"), 0);
  EXPECT_GT(delta.counterValue("spice.sparse.refactors"), 0);
  EXPECT_GT(delta.counterValue("spice.sparse.full_factors"), 0);
}
