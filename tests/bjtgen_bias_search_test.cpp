// BiasSearch: the bracketed secant search that finds the Vbe of every fT
// bias point. Every Fig. 9 shape and current must land inside the 0.1 %
// collector-current tolerance within a fixed number of operating points,
// FtExtractor must pay no solve beyond the search's own, and targets
// outside the bias range must keep the scalar error.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bjtgen/bias_search.h"
#include "bjtgen/ft.h"
#include "bjtgen/generator.h"
#include "spice/analysis.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/solution.h"
#include "spice/sources.h"
#include "util/error.h"

namespace bg = ahfic::bjtgen;
namespace sp = ahfic::spice;

namespace {

/// Operating points one search may take over the Fig. 9 grid, starting
/// from estimateVbe(): measured 5 at worst (N1.2-6D at 15.8 mA, deep in
/// high injection) and 2.83 on average over the 84 points. The bisection
/// it replaced took 17.
constexpr int kMaxSolvesPerPoint = 5;
constexpr double kMaxMeanSolves = 3.0;

const bg::ModelGenerator& gen() {
  static bg::ModelGenerator g = bg::ModelGenerator::withDefaultTechnology();
  return g;
}

/// The Fig. 9 bench's current grid: 0.05..20 mA, eight points a decade.
std::vector<double> fig9Currents() {
  std::vector<double> currents;
  for (double ic = 0.05e-3; ic <= 20.001e-3; ic *= std::pow(10.0, 0.125))
    currents.push_back(ic);
  return currents;
}

/// FtExtractor's voltage-driven bias cell, driven by hand.
struct BiasCell {
  explicit BiasCell(const sp::BjtModel& card) {
    const int c = ckt.node("c"), b = ckt.node("b");
    vb = &ckt.add<sp::VSource>("VB", b, 0, 0.0);
    vc = &ckt.add<sp::VSource>("VC", c, 0, 2.0);
    ckt.add<sp::Bjt>("Q1", ckt, c, b, 0, card);
    an = std::make_unique<sp::Analyzer>(ckt);
  }
  double icAt(double vbe) {
    vb->setWaveform(std::make_unique<sp::DcWaveform>(vbe));
    const auto x = an->op();
    return -sp::Solution(&x).at(vc->branchId());
  }
  sp::Circuit ckt;
  sp::VSource* vb = nullptr;
  sp::VSource* vc = nullptr;
  std::unique_ptr<sp::Analyzer> an;
};

}  // namespace

TEST(FtBiasSearch, EveryFig9PointHitsTargetWithinSolveBound) {
  int points = 0, solves = 0;
  for (const auto& shape : bg::fig9Shapes()) {
    const auto card = gen().generate(shape);
    BiasCell cell(card);
    for (double target : fig9Currents()) {
      const std::string where =
          shape.name() + " at " + std::to_string(target * 1e3) + " mA";
      bg::BiasSearch search(target, bg::estimateVbe(card, target));
      double ic = 0.0;
      while (!search.done()) {
        ic = cell.icAt(search.next());
        search.observe(ic);
      }
      ASSERT_FALSE(search.outOfRange()) << where;
      EXPECT_LT(std::fabs(ic - target), 1e-3 * target) << where;
      EXPECT_LE(search.evaluations(), kMaxSolvesPerPoint) << where;
      EXPECT_GT(search.vbe(), bg::BiasSearch::kVbeMin) << where;
      EXPECT_LT(search.vbe(), bg::BiasSearch::kVbeMax) << where;
      ++points;
      solves += search.evaluations();

      // The extractor's answer is the search's last point, and it solves
      // nothing beyond the search: one full factorization per op().
      const bg::FtExtractor fx(card);
      const auto pt = fx.measureAnalyticAt(target);
      EXPECT_EQ(pt.vbe, search.vbe()) << where;
      EXPECT_EQ(fx.solverStats().sparseFullFactors, search.evaluations())
          << where;
    }
  }
  EXPECT_LE(solves, kMaxMeanSolves * points) << "mean solves per point grew";
}

TEST(FtBiasSearch, TargetsOutsideBiasRangeThrowScalarError) {
  const bg::FtExtractor fx(gen().generate("N1.2-12D"));
  const double icMax = fx.maxBiasCurrent();
  BiasCell cell(gen().generate("N1.2-12D"));
  const double icMin = cell.icAt(bg::BiasSearch::kVbeMin);
  ASSERT_GT(icMin, 0.0);
  // Targets beyond either end by more than the 0.1 % tolerance; inside
  // that band the search may instead converge just short of the end.
  for (double target : {0.5 * icMin, 0.99 * icMin, 1.01 * icMax,
                        2.0 * icMax, 1e3}) {
    try {
      fx.measureAnalyticAt(target);
      ADD_FAILURE() << "no error for target " << target;
    } catch (const ahfic::Error& e) {
      EXPECT_STREQ(e.what(), bg::BiasSearch::kOutOfRangeError)
          << "target " << target;
    }
    EXPECT_THROW(fx.measureAt(target), ahfic::Error) << "target " << target;
  }
  // Just inside either end still solves.
  EXPECT_NO_THROW(fx.measureAnalyticAt(0.98 * icMax));
  EXPECT_NO_THROW(fx.measureAnalyticAt(1.02 * icMin));
}

TEST(FtBiasSearch, RejectsNonPositiveTarget) {
  EXPECT_THROW(bg::BiasSearch(0.0, 0.7), ahfic::Error);
  EXPECT_THROW(bg::BiasSearch(-1e-3, 0.7), ahfic::Error);
}

TEST(FtBiasSearch, FallsBackToBracketMidpointWhenSlopeIsNotPositive) {
  bg::BiasSearch search(1e-3, 0.725);
  EXPECT_EQ(search.next(), 0.725);
  search.observe(0.5e-3);  // below target: the ideal-diode step goes up
  const double v1 = search.next();
  EXPECT_GT(v1, 0.725);
  EXPECT_LT(v1, 0.75);
  search.observe(0.25e-3);  // current fell as Vbe rose: no usable secant
  EXPECT_FALSE(search.done());
  EXPECT_EQ(search.next(), 0.5 * (v1 + bg::BiasSearch::kVbeMax));
}

TEST(FtBiasSearch, SolvesRangeEndOnlyWhenSecantPointsPastIt) {
  bg::BiasSearch search(1.0, 0.725);
  search.observe(1e-9);  // far below: the ideal-diode step passes 1.15 V
  EXPECT_EQ(search.next(), bg::BiasSearch::kVbeMax);
  search.observe(0.5);  // the range end itself falls short of the target
  EXPECT_TRUE(search.done());
  EXPECT_TRUE(search.outOfRange());
  EXPECT_EQ(search.evaluations(), 2);
}
