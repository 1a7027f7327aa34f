// The dense oracle's own checks, plus SparseLU and CSR stamping against
// it on small random systems.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "spice/csr.h"
#include "spice/sparse_lu.h"
#include "spice/stamp.h"
#include "support/dense_oracle.h"
#include "util/numeric.h"

namespace sp = ahfic::spice;
namespace oracle = ahfic::oracle;
namespace u = ahfic::util;

TEST(DenseLu, SolvesKnownSystem) {
  oracle::DenseMatrix<double> a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  const auto x = oracle::solveDense(a, std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLu, DetectsSingular) {
  oracle::DenseMatrix<double> a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  EXPECT_THROW(oracle::solveDense(a, std::vector<double>{1.0, 2.0}),
               ahfic::Error);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the initial diagonal: fails without partial pivoting.
  oracle::DenseMatrix<double> a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const auto x = oracle::solveDense(a, std::vector<double>{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

class RandomSystemTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystemTest, DenseResidualIsSmall) {
  const int n = GetParam();
  u::Rng rng(static_cast<std::uint64_t>(n) * 7919);
  oracle::DenseMatrix<double> a(n, n);
  std::vector<double> b(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a.at(i, j) = rng.uniform(-1, 1);
    a.at(i, i) += n;  // diagonally dominant => well conditioned
    b[static_cast<size_t>(i)] = rng.uniform(-1, 1);
  }
  const auto aCopy = a;
  const auto x = oracle::solveDense(a, b);
  // Residual || A x - b ||_inf
  double worst = 0.0;
  for (int i = 0; i < n; ++i) {
    double s = -b[static_cast<size_t>(i)];
    for (int j = 0; j < n; ++j)
      s += aCopy.at(i, j) * x[static_cast<size_t>(j)];
    worst = std::max(worst, std::fabs(s));
  }
  EXPECT_LT(worst, 1e-10);
}

TEST_P(RandomSystemTest, SparseMatchesDense) {
  const int n = GetParam();
  u::Rng rng(static_cast<std::uint64_t>(n) * 104729);
  oracle::DenseMatrix<double> a(n, n);
  std::vector<std::pair<int, int>> entries;
  std::vector<double> b(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      // ~30% fill plus a strong diagonal.
      double v = (rng.uniform() < 0.3) ? rng.uniform(-1, 1) : 0.0;
      if (i == j) v += n;
      a.at(i, j) = v;
      if (v != 0.0) entries.emplace_back(i, j);
    }
    b[static_cast<size_t>(i)] = rng.uniform(-1, 1);
  }
  sp::CsrPattern pat;
  pat.build(n, std::move(entries));
  std::vector<double> vals(pat.nonzeros(), 0.0);
  for (int i = 0; i < n; ++i)
    for (int p = pat.rowPtr()[static_cast<size_t>(i)];
         p < pat.rowPtr()[static_cast<size_t>(i) + 1]; ++p)
      vals[static_cast<size_t>(p)] =
          a.at(i, pat.colIdx()[static_cast<size_t>(p)]);

  const auto xd = oracle::solveDense(a, b);
  sp::SparseLU<double> lu;
  lu.analyze(pat);
  ASSERT_NE(lu.factor(vals), sp::SparseLU<double>::FactorOutcome::kSingular);
  std::vector<double> xs;
  lu.solve(b, xs);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(xs[static_cast<size_t>(i)], xd[static_cast<size_t>(i)],
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomSystemTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

TEST(CsrStamper, AccumulatesDuplicateAdds) {
  sp::CsrPattern pat;
  pat.build(3, {{1, 2}, {1, 2}, {0, 0}});
  EXPECT_EQ(pat.nonzeros(), 4u);  // the full diagonal plus (1, 2), once
  std::vector<double> vals(pat.nonzeros(), 0.0), rhs(3, 0.0);
  std::vector<std::pair<int, int>> pending;
  sp::CsrStamper st(pat, vals, rhs, &pending);
  // Unknown ids are 1-based: (2, 3) is matrix position (1, 2).
  st.addA(2, 3, 1.5);
  st.addA(2, 3, 2.5);
  EXPECT_DOUBLE_EQ(vals[static_cast<size_t>(pat.slot(1, 2))], 4.0);
  EXPECT_LT(pat.slot(2, 1), 0);
  EXPECT_TRUE(pending.empty());
  // A position outside the pattern is queued, never silently dropped.
  st.addA(3, 2, 1.0);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], std::make_pair(2, 1));
}

TEST(ComplexLu, SolvesComplexSystem) {
  using C = std::complex<double>;
  oracle::DenseMatrix<C> a(2, 2);
  a.at(0, 0) = {1.0, 1.0};
  a.at(0, 1) = {0.0, -1.0};
  a.at(1, 0) = {2.0, 0.0};
  a.at(1, 1) = {3.0, 1.0};
  const std::vector<C> xTrue{{1.0, -1.0}, {0.5, 2.0}};
  std::vector<C> b(2);
  for (int i = 0; i < 2; ++i) {
    b[static_cast<size_t>(i)] = a.at(i, 0) * xTrue[0] + a.at(i, 1) * xTrue[1];
  }
  const auto x = oracle::solveDense(a, b);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(std::abs(x[static_cast<size_t>(i)] -
                         xTrue[static_cast<size_t>(i)]),
                0.0, 1e-12);
  }
}
