// Analytic checks of the MNA engine on linear circuits: dividers,
// controlled sources, RC/RL transients, RLC resonance, sparse engine vs
// the dense oracle.

#include <gtest/gtest.h>

#include <cmath>

#include "spice/analysis.h"
#include "spice/circuit.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "support/dense_oracle.h"
#include "util/numeric.h"
#include "util/units.h"

namespace sp = ahfic::spice;
namespace oracle = ahfic::oracle;
namespace u = ahfic::util;
using u::constants::kTwoPi;

TEST(LinearDc, ResistorDivider) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 10.0);
  ckt.add<sp::Resistor>("R1", in, out, 1e3);
  ckt.add<sp::Resistor>("R2", out, 0, 3e3);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(out), 7.5, 1e-9);
  EXPECT_NEAR(s.at(in), 10.0, 1e-12);
}

TEST(LinearDc, VsourceBranchCurrent) {
  sp::Circuit ckt;
  const int in = ckt.node("in");
  auto& v1 = ckt.add<sp::VSource>("V1", in, 0, 5.0);
  ckt.add<sp::Resistor>("R1", in, 0, 1e3);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  // Branch current = current from + through source to -, so the source
  // delivers -i into node "in": i = -5 mA.
  EXPECT_NEAR(s.at(v1.branchId()), -5e-3, 1e-9);
}

TEST(LinearDc, CurrentSourceIntoResistor) {
  sp::Circuit ckt;
  const int n1 = ckt.node("n1");
  ckt.add<sp::ISource>("I1", 0, n1, 1e-3);  // 1 mA from gnd into n1
  ckt.add<sp::Resistor>("R1", n1, 0, 2e3);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(n1), 2.0, 1e-9);
}

TEST(LinearDc, InductorIsDcShort) {
  sp::Circuit ckt;
  const int a = ckt.node("a"), b = ckt.node("b");
  ckt.add<sp::VSource>("V1", a, 0, 1.0);
  ckt.add<sp::Inductor>("L1", a, b, 1e-6);
  auto& rl = ckt.add<sp::Resistor>("R1", b, 0, 50.0);
  (void)rl;
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(b), 1.0, 1e-9);
}

TEST(LinearDc, CapacitorIsDcOpen) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 3.0);
  ckt.add<sp::Resistor>("R1", in, out, 1e3);
  ckt.add<sp::Capacitor>("C1", out, 0, 1e-9);
  ckt.add<sp::Resistor>("R2", out, 0, 1e6);  // bleeder defines the node
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(out), 3.0 * 1e6 / (1e6 + 1e3), 1e-6);
}

TEST(LinearDc, VcvsGain) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 0.5);
  ckt.add<sp::Vcvs>("E1", out, 0, in, 0, 8.0);
  ckt.add<sp::Resistor>("RL", out, 0, 1e3);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(out), 4.0, 1e-9);
}

TEST(LinearDc, VccsIntoLoad) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 2.0);
  // gm = 1 mS, current flows out->gnd through source: v(out) = -gm*v(in)*R
  ckt.add<sp::Vccs>("G1", out, 0, in, 0, 1e-3);
  ckt.add<sp::Resistor>("RL", out, 0, 1e3);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(out), -2.0, 1e-9);
}

TEST(LinearDc, CccsMirrorsCurrent) {
  sp::Circuit ckt;
  const int a = ckt.node("a"), out = ckt.node("out");
  auto& vs = ckt.add<sp::VSource>("Vsense", a, 0, 0.0);
  ckt.add<sp::ISource>("I1", a, 0, 1e-3);  // 1 mA a -> gnd: i(Vsense) = 1 mA
  ckt.add<sp::Cccs>("F1", out, 0, vs, 2.0);
  ckt.add<sp::Resistor>("RL", out, 0, 1e3);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  // i(Vsense) = +1 mA (flows a->gnd through it); F injects 2 mA out->gnd,
  // i.e. -2 V across 1k.
  EXPECT_NEAR(std::fabs(s.at(out)), 2.0, 1e-9);
}

TEST(LinearDc, CcvsProducesVoltage) {
  sp::Circuit ckt;
  const int a = ckt.node("a"), out = ckt.node("out");
  auto& vs = ckt.add<sp::VSource>("Vsense", a, 0, 0.0);
  ckt.add<sp::ISource>("I1", a, 0, 2e-3);
  ckt.add<sp::Ccvs>("H1", out, 0, vs, 500.0);
  ckt.add<sp::Resistor>("RL", out, 0, 1e3);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(std::fabs(s.at(out)), 1.0, 1e-9);
}

TEST(LinearDc, SparseBackendMatchesDense) {
  sp::Circuit ckt;
  const int in = ckt.node("in");
  int prev = in;
  ckt.add<sp::VSource>("V1", in, 0, 10.0);
  for (int k = 0; k < 20; ++k) {
    const int next = ckt.node("n" + std::to_string(k));
    ckt.add<sp::Resistor>("Rs" + std::to_string(k), prev, next, 100.0);
    ckt.add<sp::Resistor>("Rg" + std::to_string(k), next, 0, 1e3);
    prev = next;
  }
  const auto xd = oracle::DenseEngine(ckt).op();
  sp::Analyzer anS(ckt);
  const auto xs = anS.op();
  ASSERT_EQ(xd.size(), xs.size());
  for (size_t i = 0; i < xd.size(); ++i) EXPECT_NEAR(xd[i], xs[i], 1e-9);
}

TEST(LinearTran, RcChargingMatchesAnalytic) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  const double r = 1e3, c = 1e-9;  // tau = 1 us
  ckt.add<sp::VSource>(
      "V1", in, 0,
      std::make_unique<sp::PulseWaveform>(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0,
                                          2.0));
  ckt.add<sp::Resistor>("R1", in, out, r);
  ckt.add<sp::Capacitor>("C1", out, 0, c);
  sp::Analyzer an(ckt);
  const double tau = r * c;
  const auto tr = an.transient(5 * tau, tau / 100.0);
  const auto t = tr.time;
  const auto v = tr.voltage(out);
  for (size_t k = 0; k < t.size(); ++k) {
    const double expected = 1.0 - std::exp(-t[k] / tau);
    EXPECT_NEAR(v[k], expected, 5e-3) << "at t=" << t[k];
  }
}

TEST(LinearTran, RlDecayMatchesAnalytic) {
  // Current source switched into an RL pair: i_L(t) = I*(1 - e^{-tR/L}).
  sp::Circuit ckt;
  const int n1 = ckt.node("n1");
  const double r = 50.0, l = 1e-6;  // tau = 20 ns
  ckt.add<sp::ISource>(
      "I1", 0, n1,
      std::make_unique<sp::PulseWaveform>(0.0, 10e-3, 0.0, 1e-13, 1e-13, 1.0,
                                          2.0));
  ckt.add<sp::Resistor>("R1", n1, 0, r);
  auto& l1 = ckt.add<sp::Inductor>("L1", n1, 0, l);
  sp::Analyzer an(ckt);
  const double tau = l / r;
  const auto tr = an.transient(5 * tau, tau / 200.0);
  const auto t = tr.time;
  const auto il = tr.unknown(l1.branchId());
  for (size_t k = 0; k < t.size(); ++k) {
    const double expected = 10e-3 * (1.0 - std::exp(-t[k] / tau));
    EXPECT_NEAR(il[k], expected, 2e-4) << "at t=" << t[k];
  }
}

TEST(LinearTran, LcOscillatorConservesFrequency) {
  // Parallel LC with initial energy injected by a current pulse; resonant
  // f0 = 1/(2*pi*sqrt(LC)) = 50.33 MHz.
  sp::Circuit ckt;
  const int n1 = ckt.node("n1");
  const double l = 100e-9, c = 100e-12;
  ckt.add<sp::Inductor>("L1", n1, 0, l);
  ckt.add<sp::Capacitor>("C1", n1, 0, c);
  ckt.add<sp::Resistor>("Rbig", n1, 0, 1e6);  // tiny loss
  ckt.add<sp::ISource>(
      "Ikick", 0, n1,
      std::make_unique<sp::PulseWaveform>(0.0, 10e-3, 0.0, 1e-10, 1e-10,
                                          2e-9, 1.0));
  sp::Analyzer an(ckt);
  const double f0 = 1.0 / (kTwoPi * std::sqrt(l * c));
  const auto tr = an.transient(20.0 / f0, 0.005 / f0);
  const auto f = u::oscillationFrequency(tr.time, tr.voltage(n1));
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(*f, f0, f0 * 0.01);
}

TEST(LinearAc, RcLowPassPole) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  const double r = 1e3, c = 159e-12;  // f3dB ~ 1 MHz
  ckt.add<sp::VSource>("V1", in, 0, 0.0, /*acMag=*/1.0);
  ckt.add<sp::Resistor>("R1", in, out, r);
  ckt.add<sp::Capacitor>("C1", out, 0, c);
  sp::Analyzer an(ckt);
  const double f3 = 1.0 / (kTwoPi * r * c);
  const auto ac = an.ac({f3 / 100.0, f3, f3 * 100.0});
  // Passband ~ 0 dB.
  EXPECT_NEAR(ac.magnitudeDb(0, out), 0.0, 0.01);
  // -3 dB at the pole.
  EXPECT_NEAR(ac.magnitudeDb(1, out), -3.01, 0.05);
  // -40 dB two decades above.
  EXPECT_NEAR(ac.magnitudeDb(2, out), -40.0, 0.1);
  // Phase at the pole is -45 degrees.
  const auto v = ac.voltage(1, out);
  EXPECT_NEAR(std::arg(v) * 180.0 / u::constants::kPi, -45.0, 0.5);
}

TEST(LinearAc, SeriesRlcResonance) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), n1 = ckt.node("n1"), out = ckt.node("out");
  const double r = 10.0, l = 1e-6, c = 1e-9;
  ckt.add<sp::VSource>("V1", in, 0, 0.0, 1.0);
  ckt.add<sp::Resistor>("R1", in, n1, r);
  ckt.add<sp::Inductor>("L1", n1, out, l);
  ckt.add<sp::Capacitor>("C1", out, 0, c);
  ckt.add<sp::Resistor>("Rload", out, 0, 1e9);
  sp::Analyzer an(ckt);
  const double f0 = 1.0 / (kTwoPi * std::sqrt(l * c));
  const double q = std::sqrt(l / c) / r;
  const auto ac = an.ac({f0});
  // At resonance the capacitor voltage is Q times the input.
  EXPECT_NEAR(std::abs(ac.voltage(0, out)), q, q * 0.01);
}

TEST(LinearDcSweep, SweepsSourceValues) {
  sp::Circuit ckt;
  const int in = ckt.node("in"), out = ckt.node("out");
  ckt.add<sp::VSource>("V1", in, 0, 0.0);
  ckt.add<sp::Resistor>("R1", in, out, 1e3);
  ckt.add<sp::Resistor>("R2", out, 0, 1e3);
  sp::Analyzer an(ckt);
  const auto sw = an.dcSweep("V1", 0.0, 2.0, 0.5);
  ASSERT_EQ(sw.sweep.size(), 5u);
  for (size_t k = 0; k < sw.sweep.size(); ++k)
    EXPECT_NEAR(sw.voltage(k, out), sw.sweep[k] / 2.0, 1e-9);
}

TEST(LinearDcSweep, RejectsBadArguments) {
  sp::Circuit ckt;
  const int in = ckt.node("in");
  ckt.add<sp::VSource>("V1", in, 0, 1.0);
  ckt.add<sp::Resistor>("R1", in, 0, 1e3);
  sp::Analyzer an(ckt);
  EXPECT_THROW(an.dcSweep("nosuch", 0, 1, 0.1), ahfic::Error);
  EXPECT_THROW(an.dcSweep("R1", 0, 1, 0.1), ahfic::Error);
  EXPECT_THROW(an.dcSweep("V1", 0, 1, -0.1), ahfic::Error);
}
