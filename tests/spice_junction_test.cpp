// Property tests of the shared junction physics helpers: continuity of
// the depletion charge/capacitance at the FC transition, the exponential
// continuation at the overflow limit, and pnjlim's fixpoint behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "spice/junction.h"

namespace sp = ahfic::spice;

class DepletionParamTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {
};

TEST_P(DepletionParamTest, ContinuousAtFcTransition) {
  const auto [vj, m, fc] = GetParam();
  const double cj0 = 10e-15;
  const auto k = sp::depletionCoeffs(vj, m, fc);
  const double vt = fc * vj;
  const double eps = vj * 1e-9;
  const auto below = sp::depletionQC(vt - eps, cj0, vj, m, fc, k);
  const auto above = sp::depletionQC(vt + eps, cj0, vj, m, fc, k);
  // Charge and capacitance are both continuous across the linearisation
  // boundary.
  EXPECT_NEAR(below.q, above.q, std::fabs(below.q) * 1e-5 + 1e-22);
  EXPECT_NEAR(below.c, above.c, below.c * 1e-4);
}

TEST_P(DepletionParamTest, CapacitanceIsChargeDerivative) {
  const auto [vj, m, fc] = GetParam();
  const double cj0 = 10e-15;
  const auto k = sp::depletionCoeffs(vj, m, fc);
  for (double v : {-5.0, -1.0, 0.0, 0.3 * vj, fc * vj + 0.2, 1.5}) {
    const double h = 1e-6;
    const auto lo = sp::depletionQC(v - h, cj0, vj, m, fc, k);
    const auto hi = sp::depletionQC(v + h, cj0, vj, m, fc, k);
    const auto mid = sp::depletionQC(v, cj0, vj, m, fc, k);
    EXPECT_NEAR((hi.q - lo.q) / (2 * h), mid.c, mid.c * 1e-3 + 1e-20)
        << "v=" << v;
  }
}

TEST_P(DepletionParamTest, CapacitanceGrowsTowardForwardBias) {
  const auto [vj, m, fc] = GetParam();
  const double cj0 = 10e-15;
  const auto k = sp::depletionCoeffs(vj, m, fc);
  double prev = 0.0;
  for (double v = -3.0; v < vj; v += 0.1) {
    const auto qc = sp::depletionQC(v, cj0, vj, m, fc, k);
    EXPECT_GT(qc.c, prev) << v;
    prev = qc.c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    JunctionShapes, DepletionParamTest,
    ::testing::Values(std::make_tuple(0.75, 0.33, 0.5),
                      std::make_tuple(0.85, 0.35, 0.5),
                      std::make_tuple(0.65, 0.5, 0.5),
                      std::make_tuple(0.55, 0.4, 0.0)));

TEST(Depletion, ZeroCj0IsZero) {
  const auto qc = sp::depletionQC(0.3, 0.0, 0.75, 0.33, 0.5,
                                   sp::depletionCoeffs(0.75, 0.33, 0.5));
  EXPECT_EQ(qc.q, 0.0);
  EXPECT_EQ(qc.c, 0.0);
}

TEST(JunctionIv, MatchesIdealExponentialInRange) {
  const double isat = 1e-16, vte = 0.02585;
  for (double v : {-0.5, 0.0, 0.3, 0.6, 0.8}) {
    const auto iv = sp::junctionIV(v, isat, vte);
    EXPECT_NEAR(iv.i, isat * (std::exp(v / vte) - 1.0),
                std::fabs(iv.i) * 1e-12 + 1e-30);
    EXPECT_NEAR(iv.g, isat / vte * std::exp(v / vte), iv.g * 1e-12);
  }
}

TEST(JunctionIv, ContinuousAtOverflowLimit) {
  const double isat = 1e-16, vte = 0.02585;
  const double vLim = 80.0 * vte;
  const auto below = sp::junctionIV(vLim - 1e-9, isat, vte);
  const auto above = sp::junctionIV(vLim + 1e-9, isat, vte);
  EXPECT_NEAR(below.i, above.i, below.i * 1e-6);
  EXPECT_NEAR(below.g, above.g, below.g * 1e-6);
  // Beyond the limit growth is linear, not exponential: finite values at
  // absurd voltages.
  const auto far = sp::junctionIV(100.0, isat, vte);
  EXPECT_TRUE(std::isfinite(far.i));
  EXPECT_TRUE(std::isfinite(far.g));
}

TEST(JunctionIv, DeepReverseSaturates) {
  const auto iv = sp::junctionIV(-50.0, 1e-14, 0.02585);
  EXPECT_NEAR(iv.i, -1e-14, 1e-20);
  EXPECT_GE(iv.g, 0.0);
}

TEST(Pnjlim, IdentityWhenCloseOrBelowCritical) {
  const double vte = 0.02585;
  const double vcrit = sp::junctionVcrit(1e-16, vte);
  // Below vcrit: never limited.
  EXPECT_DOUBLE_EQ(sp::pnjlim(0.3, 0.0, vte, vcrit), 0.3);
  // Small steps above vcrit: unchanged.
  EXPECT_DOUBLE_EQ(sp::pnjlim(vcrit + 0.01, vcrit + 0.005, vte, vcrit),
                   vcrit + 0.01);
}

TEST(Pnjlim, LargeForwardStepsAreDamped) {
  const double vte = 0.02585;
  const double vcrit = sp::junctionVcrit(1e-16, vte);
  const double vOld = 0.6;
  const double vNew = sp::pnjlim(5.0, vOld, vte, vcrit);
  EXPECT_LT(vNew, 5.0);
  EXPECT_GT(vNew, vOld);  // still makes progress
  // Iterating converges to any target above vcrit.
  double v = 0.6;
  const double target = 0.95;
  for (int k = 0; k < 200; ++k) v = sp::pnjlim(target, v, vte, vcrit);
  EXPECT_NEAR(v, target, 1e-9);
}

TEST(Pnjlim, FixpointIsStable) {
  const double vte = 0.02585;
  const double vcrit = sp::junctionVcrit(1e-16, vte);
  for (double v : {0.1, 0.7, 0.9, 1.1})
    EXPECT_DOUBLE_EQ(sp::pnjlim(v, v, vte, vcrit), v);
}

TEST(JunctionVcrit, TypicalSiliconValue) {
  // vcrit = vte * ln(vte / (sqrt(2) * is)): ~0.8 V for is = 1e-16.
  const double vcrit = sp::junctionVcrit(1e-16, 0.02585);
  EXPECT_GT(vcrit, 0.7);
  EXPECT_LT(vcrit, 0.95);
}
