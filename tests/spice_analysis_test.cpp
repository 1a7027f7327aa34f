// Analysis-engine robustness: statistics, integration methods, sparse
// backend on nonlinear circuits against the dense oracle, analyzer reuse,
// grids, and failure modes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "spice/analysis.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/diode.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "support/dense_oracle.h"
#include "util/error.h"

namespace sp = ahfic::spice;
namespace oracle = ahfic::oracle;

TEST(AnalysisGrids, LogspaceProperties) {
  const auto f = sp::logspace(1e3, 1e6, 10);
  EXPECT_NEAR(f.front(), 1e3, 1e-9);
  EXPECT_NEAR(f.back(), 1e6, 1e-3);
  // Log-uniform: constant ratio between consecutive points.
  const double ratio = f[1] / f[0];
  for (size_t k = 1; k < f.size(); ++k)
    EXPECT_NEAR(f[k] / f[k - 1], ratio, ratio * 1e-9);
  EXPECT_EQ(f.size(), 31u);  // 3 decades * 10 + 1
  EXPECT_THROW(sp::logspace(0.0, 1e3, 5), ahfic::Error);
  EXPECT_THROW(sp::logspace(1e6, 1e3, 5), ahfic::Error);
}

TEST(AnalysisGrids, LinspaceProperties) {
  const auto v = sp::linspace(-1.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], -1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
  EXPECT_EQ(sp::linspace(3.0, 9.0, 1).size(), 1u);
}

TEST(AnalysisStats, CountersAdvance) {
  sp::Circuit ckt;
  const int a = ckt.node("a");
  sp::DiodeModel dm;
  dm.is = 1e-14;
  ckt.add<sp::ISource>("I1", 0, a, 1e-3);
  ckt.add<sp::Diode>("D1", ckt, a, 0, dm);
  sp::Analyzer an(ckt);
  EXPECT_EQ(an.stats().newtonIterations, 0);
  an.op();
  EXPECT_GT(an.stats().newtonIterations, 2);
  EXPECT_GT(an.stats().matrixSolves, 2);
}

TEST(AnalysisStats, CountersResetBetweenCalls) {
  // Per-call counter windows: the runner's manifests report stats() after
  // each job's analysis, which is only accurate if repeated calls on one
  // Analyzer do not accumulate.
  sp::Circuit ckt;
  const int a = ckt.node("a");
  sp::DiodeModel dm;
  dm.is = 1e-14;
  ckt.add<sp::ISource>("I1", 0, a, 1e-3);
  ckt.add<sp::Diode>("D1", ckt, a, 0, dm);
  sp::Analyzer an(ckt);
  an.op();
  const long first = an.stats().newtonIterations;
  EXPECT_GT(first, 0);
  an.op();
  // DC solves always start from zero, so the second call does identical
  // work — and must report exactly it, not 2x.
  EXPECT_EQ(an.stats().newtonIterations, first);
}

TEST(AnalysisStats, TransientWindowIncludesItsOperatingPoint) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 1.0);
  ckt.add<sp::Resistor>("R1", in, out, 1e3);
  ckt.add<sp::Capacitor>("C1", out, 0, 1e-9);
  sp::Analyzer an(ckt);
  an.op();
  const long opSolves = an.stats().matrixSolves;
  EXPECT_GT(opSolves, 0);
  an.transient(1e-7, 10e-9);
  // The transient window covers its own initial OP plus the steps — and
  // none of the earlier op() call's work.
  EXPECT_GT(an.stats().matrixSolves, opSolves);
  EXPECT_GT(an.stats().acceptedSteps, 0);
  const long tranSolves = an.stats().matrixSolves;
  an.op();
  EXPECT_LT(an.stats().matrixSolves, tranSolves);
}

TEST(AnalysisStats, AcAndNoiseWindowsNeverAccumulate) {
  // Regression guard for the per-call stats audit: every entry point —
  // including the AC reuse path and noise() — opens a fresh window, so
  // calling any of them in a loop reports constant, not growing, counts.
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 1.0, /*acMag=*/1.0);
  ckt.add<sp::Resistor>("R1", in, out, 1e3);
  ckt.add<sp::Capacitor>("C1", out, 0, 1e-9);
  sp::Analyzer an(ckt);

  const auto freqs = sp::logspace(1e3, 1e6, 3);
  an.ac(freqs);
  const long full = an.stats().matrixSolves;
  EXPECT_GT(full, 0);
  an.ac(freqs);
  EXPECT_EQ(an.stats().matrixSolves, full);

  const auto xop = an.op();
  an.ac(freqs, xop);
  const long reuse = an.stats().matrixSolves;
  // The reuse overload skips the OP: one factor+solve per frequency.
  EXPECT_EQ(reuse, static_cast<long>(freqs.size()));
  an.ac(freqs, xop);
  EXPECT_EQ(an.stats().matrixSolves, reuse);

  an.noise(freqs, "out", xop);
  const long noise = an.stats().matrixSolves;
  EXPECT_GT(noise, 0);
  an.noise(freqs, "out", xop);
  EXPECT_EQ(an.stats().matrixSolves, noise);
}

TEST(AnalysisStats, TransientWindowsNeverAccumulate) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 1.0);
  ckt.add<sp::Resistor>("R1", in, out, 1e3);
  ckt.add<sp::Capacitor>("C1", out, 0, 1e-9);
  sp::Analyzer an(ckt);
  an.transient(1e-7, 10e-9);
  const long first = an.stats().matrixSolves;
  const long firstSteps = an.stats().acceptedSteps;
  an.transient(1e-7, 10e-9);
  EXPECT_EQ(an.stats().matrixSolves, first);
  EXPECT_EQ(an.stats().acceptedSteps, firstSteps);
}

TEST(AnalysisStats, TransientStepAccounting) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 1.0);
  ckt.add<sp::Resistor>("R1", in, out, 1e3);
  ckt.add<sp::Capacitor>("C1", out, 0, 1e-9);
  sp::Analyzer an(ckt);
  const auto tr = an.transient(1e-6, 10e-9);
  EXPECT_GT(an.stats().acceptedSteps, 50);
  EXPECT_EQ(tr.time.size(), static_cast<size_t>(an.stats().acceptedSteps) + 1);
}

TEST(AnalysisFailure, FloatingNodeIsSingular) {
  // A capacitor-only node has no DC path: the OP matrix is singular and
  // the engine reports non-convergence rather than nonsense.
  sp::Circuit ckt;
  const int a = ckt.node("a"), b = ckt.node("b");
  ckt.add<sp::VSource>("V1", a, 0, 1.0);
  ckt.add<sp::Capacitor>("C1", a, b, 1e-9);  // b floats at DC
  sp::Analyzer an(ckt);
  EXPECT_THROW(an.op(), ahfic::ConvergenceError);
}

TEST(AnalysisFailure, ShortedVoltageSourcesAreSingular) {
  sp::Circuit ckt;
  const int a = ckt.node("a");
  ckt.add<sp::VSource>("V1", a, 0, 1.0);
  ckt.add<sp::VSource>("V2", a, 0, 2.0);  // conflicting ideal sources
  sp::Analyzer an(ckt);
  EXPECT_THROW(an.op(), ahfic::ConvergenceError);
}

TEST(AnalysisBackend, SparseMatchesDenseOnNonlinearCircuit) {
  auto build = [](sp::Circuit& ckt) {
    sp::BjtModel m;
    m.is = 1e-16;
    m.bf = 100.0;
    m.rb = 150.0;
    m.re = 3.0;
    const int vcc = ckt.node("vcc"), b = ckt.node("b"), c = ckt.node("c");
    ckt.add<sp::VSource>("VCC", vcc, 0, 5.0);
    ckt.add<sp::Resistor>("RB1", vcc, b, 47e3);
    ckt.add<sp::Resistor>("RB2", b, 0, 10e3);
    ckt.add<sp::Resistor>("RC", vcc, c, 2e3);
    const int e = ckt.node("e");
    ckt.add<sp::Bjt>("Q1", ckt, c, b, e, m);
    ckt.add<sp::Resistor>("RE", e, 0, 500.0);
  };
  sp::Circuit c1, c2;
  build(c1);
  build(c2);
  const auto xd = oracle::DenseEngine(c1).op();
  sp::Analyzer as(c2);
  const auto xs = as.op();
  ASSERT_EQ(xd.size(), xs.size());
  for (size_t i = 0; i < xd.size(); ++i)
    EXPECT_NEAR(xd[i], xs[i], 1e-6) << i;
}

TEST(Analyzer, RepeatedOpMatchesFreshAnalyzer) {
  // One analyzer, a source moved between op() calls: every result must
  // equal, bit for bit, what a newly built analyzer returns at that
  // source value (op() starts from a fresh factorization each call).
  auto build = [](sp::Circuit& ckt, double vb) {
    sp::BjtModel m;
    m.is = 1e-16;
    m.bf = 100.0;
    m.rb = 150.0;
    m.cje = 1e-13;
    const int b = ckt.node("b"), c = ckt.node("c");
    ckt.add<sp::VSource>("VB", b, 0, vb);
    ckt.add<sp::VSource>("VC", c, 0, 2.0);
    ckt.add<sp::Bjt>("Q1", ckt, c, b, 0, m);
  };
  auto hex = [](const std::vector<double>& x) {
    std::string out;
    char buf[40];
    for (double v : x) {
      std::snprintf(buf, sizeof buf, "%a ", v);
      out += buf;
    }
    return out;
  };
  sp::Circuit reused;
  build(reused, 0.3);
  sp::Analyzer an(reused);
  auto* vb = dynamic_cast<sp::VSource*>(reused.findDevice("VB"));
  ASSERT_NE(vb, nullptr);
  for (double v : {0.3, 0.85, 0.7, 1.15, 0.775}) {
    vb->setWaveform(std::make_unique<sp::DcWaveform>(v));
    const auto x = an.op();
    sp::Circuit fresh;
    build(fresh, v);
    sp::Analyzer ref(fresh);
    EXPECT_EQ(hex(x), hex(ref.op())) << "vb=" << v;
    EXPECT_EQ(an.stats().newtonIterations, ref.stats().newtonIterations);
    EXPECT_EQ(an.stats().sparseFullFactors, ref.stats().sparseFullFactors);
  }
}

TEST(AnalysisIntegration, BackwardEulerConvergesToSameSteadyState) {
  auto run = [](sp::IntegMethod method) {
    sp::Circuit ckt;
    const int in = ckt.node("in"), out = ckt.node("out");
    ckt.add<sp::VSource>("V1", in, 0, 2.0);
    ckt.add<sp::Resistor>("R1", in, out, 1e3);
    ckt.add<sp::Capacitor>("C1", out, 0, 1e-9);
    sp::AnalysisOptions opt;
    opt.method = method;
    sp::Analyzer an(ckt, opt);
    const auto tr = an.transient(10e-6, 50e-9);
    return tr.voltage(out).back();
  };
  EXPECT_NEAR(run(sp::IntegMethod::kTrapezoidal), 2.0, 1e-6);
  EXPECT_NEAR(run(sp::IntegMethod::kBackwardEuler), 2.0, 1e-6);
}

TEST(AnalysisIntegration, TrapezoidalIsMoreAccurateThanBe) {
  // LC tank ringdown: BE's numerical damping shrinks the amplitude; trap
  // (with small damping) preserves it far better.
  auto peakAfterRing = [](sp::IntegMethod method, double trapDamping) {
    sp::Circuit ckt;
    const int n1 = ckt.node("n1");
    ckt.add<sp::Inductor>("L1", n1, 0, 100e-9);
    ckt.add<sp::Capacitor>("C1", n1, 0, 100e-12);
    ckt.add<sp::Resistor>("Rb", n1, 0, 1e6);
    ckt.add<sp::ISource>(
        "Ik", 0, n1,
        std::make_unique<sp::PulseWaveform>(0.0, 10e-3, 0.0, 1e-10, 1e-10,
                                            2e-9, 1.0));
    sp::AnalysisOptions opt;
    opt.method = method;
    opt.trapDamping = trapDamping;
    sp::Analyzer an(ckt, opt);
    const auto tr = an.transient(300e-9, 0.5e-9, 250e-9);
    double peak = 0.0;
    for (double v : tr.voltage(n1)) peak = std::max(peak, std::fabs(v));
    return peak;
  };
  const double trap = peakAfterRing(sp::IntegMethod::kTrapezoidal, 0.02);
  const double be = peakAfterRing(sp::IntegMethod::kBackwardEuler, 0.0);
  EXPECT_GT(trap, be * 1.5);
}

TEST(AnalysisOptions, TightToleranceStillConverges) {
  sp::Circuit ckt;
  const int a = ckt.node("a");
  sp::DiodeModel dm;
  dm.is = 1e-14;
  ckt.add<sp::ISource>("I1", 0, a, 1e-3);
  ckt.add<sp::Diode>("D1", ckt, a, 0, dm);
  sp::AnalysisOptions opt;
  opt.reltol = 1e-6;
  opt.vntol = 1e-9;
  sp::Analyzer an(ckt, opt);
  EXPECT_NO_THROW(an.op());
}

TEST(AnalysisOptions, BadTransientArgsRejected) {
  sp::Circuit ckt;
  const int a = ckt.node("a");
  ckt.add<sp::VSource>("V1", a, 0, 1.0);
  ckt.add<sp::Resistor>("R1", a, 0, 1e3);
  sp::Analyzer an(ckt);
  EXPECT_THROW(an.transient(-1.0, 1e-9), ahfic::Error);
  EXPECT_THROW(an.transient(1e-6, 0.0), ahfic::Error);
}

TEST(AnalysisOp, WarmRestartViaSweepIsConsistent) {
  // Sweeping up and down lands on the same solutions (no hysteresis in a
  // monotone circuit).
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  sp::DiodeModel dm;
  dm.is = 1e-14;
  ckt.add<sp::VSource>("V1", in, 0, 0.0);
  ckt.add<sp::Resistor>("R1", in, out, 1e3);
  ckt.add<sp::Diode>("D1", ckt, out, 0, dm);
  sp::Analyzer an(ckt);
  const auto up = an.dcSweep("V1", 0.0, 2.0, 0.25);
  const auto down = an.dcSweep("V1", 2.0, 0.0, -0.25);
  ASSERT_EQ(up.sweep.size(), down.sweep.size());
  const size_t n = up.sweep.size();
  // Agreement at the Newton-tolerance scale (reltol = 1e-3).
  for (size_t k = 0; k < n; ++k)
    EXPECT_NEAR(up.voltage(k, out), down.voltage(n - 1 - k, out), 2e-3);
}
