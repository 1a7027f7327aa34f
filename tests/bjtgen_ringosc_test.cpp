// Fig. 11 ring oscillator: construction, oscillation, and the Table 1
// shape ordering.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bjtgen/generator.h"
#include "bjtgen/ringosc.h"
#include "spice/analysis.h"
#include "util/error.h"

namespace bg = ahfic::bjtgen;
namespace sp = ahfic::spice;

namespace {
bg::RingOscillatorSpec defaultSpec() {
  static bg::ModelGenerator gen =
      bg::ModelGenerator::withDefaultTechnology();
  bg::RingOscillatorSpec spec;
  spec.diffPairModel = gen.generate("N1.2-12D");
  spec.followerModel = gen.generate("N1.2-6D");
  return spec;
}
}  // namespace

TEST(RingOscillator, BuildsExpectedDeviceCount) {
  sp::Circuit ckt;
  const auto nodes = buildRingOscillator(ckt, defaultSpec());
  // Per stage: 2 loads + 2 follower loads + 2 diff + 2 followers + 1 tail
  // = 9 devices; plus VCC and the kick source.
  EXPECT_EQ(ckt.devices().size(), 5u * 9u + 2u);
  EXPECT_NE(ckt.findNode(nodes.output), -1);
  EXPECT_NE(ckt.findDevice("Qd1_0"), nullptr);
  EXPECT_NE(ckt.findDevice("Qf2_4"), nullptr);
}

TEST(RingOscillator, DcOperatingPointIsEclLike) {
  sp::Circuit ckt;
  const auto spec = defaultSpec();
  buildRingOscillator(ckt, spec);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  // Balanced OP: collector nodes sit one half-swing below VCC.
  const double vc = s.at(ckt.findNode("cp0"));
  const double expected =
      spec.vcc - spec.collectorLoad * spec.tailCurrent / 2.0;
  EXPECT_NEAR(vc, expected, 0.15);
  // Follower outputs one Vbe below that.
  const double vf = s.at(ckt.findNode("fp0"));
  EXPECT_NEAR(vc - vf, 0.8, 0.15);
}

TEST(RingOscillator, OscillatesAtGhz) {
  const auto m = bg::measureRingFrequency(defaultSpec(), 8.0, 3.0);
  EXPECT_TRUE(m.oscillating);
  EXPECT_GT(m.frequency, 0.8e9);
  EXPECT_LT(m.frequency, 4.0e9);
  EXPECT_GT(m.peakToPeak, 0.3);
}

TEST(RingOscillator, Table1WinnerIsN12_12D) {
  // The paper's conclusion: "the best shape for the transistors was
  // N1.2-12D". Compare the winner against the single-base baseline and
  // one same-area-factor alternative.
  static bg::ModelGenerator gen =
      bg::ModelGenerator::withDefaultTechnology();
  auto freqFor = [&](const char* shape) {
    auto spec = defaultSpec();
    spec.diffPairModel = gen.generate(shape);
    const auto m = bg::measureRingFrequency(spec, 8.0, 3.0);
    EXPECT_TRUE(m.oscillating) << shape;
    return m.frequency;
  };
  const double f12d = freqFor("N1.2-12D");
  EXPECT_GT(f12d, freqFor("N1.2-6S"));
  EXPECT_GT(f12d, freqFor("N2.4-6D"));
  EXPECT_GT(f12d, freqFor("N1.2x2-6S"));
}

TEST(RingOscillator, SingleBaseIsClearlySlower) {
  static bg::ModelGenerator gen =
      bg::ModelGenerator::withDefaultTechnology();
  auto spec = defaultSpec();
  spec.diffPairModel = gen.generate("N1.2-6S");
  const auto slow = bg::measureRingFrequency(spec, 10.0, 4.0);
  spec.diffPairModel = gen.generate("N1.2-12D");
  const auto fast = bg::measureRingFrequency(spec, 8.0, 3.0);
  ASSERT_TRUE(slow.oscillating);
  ASSERT_TRUE(fast.oscillating);
  EXPECT_GT(fast.frequency / slow.frequency, 1.5);
}

TEST(RingOscillator, SpecValidation) {
  sp::Circuit ckt;
  auto spec = defaultSpec();
  spec.stages = 4;  // even: no net inversion
  EXPECT_THROW(buildRingOscillator(ckt, spec), ahfic::Error);
  spec.stages = 1;
  EXPECT_THROW(buildRingOscillator(ckt, spec), ahfic::Error);
  spec = defaultSpec();
  spec.tailCurrent = 0.0;
  EXPECT_THROW(buildRingOscillator(ckt, spec), ahfic::Error);
}

TEST(RingOscillator, ThreeStageVariantAlsoOscillates) {
  auto spec = defaultSpec();
  spec.stages = 3;
  const auto m = bg::measureRingFrequency(spec, 8.0, 3.0);
  EXPECT_TRUE(m.oscillating);
  // Fewer stages -> higher frequency.
  const auto five = bg::measureRingFrequency(defaultSpec(), 8.0, 3.0);
  EXPECT_GT(m.frequency, five.frequency);
}

namespace {
std::string hexFloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}
}  // namespace

TEST(RingOscillator, Table1TransientIsBitIdentical) {
#if defined(AHFIC_NATIVE_ARCH_BUILD)
  GTEST_SKIP() << "-march=native may contract multiply-adds into FMA, "
                  "which moves the pinned hex-float values by ulps";
#endif
  // Table 1 at its bench settings (10 ns window, 3 ps cap, follower
  // N1.2-6D): the frequency to the last bit and the exact Newton and step
  // counts. A solver change that claims to be bit-identical must leave
  // every value here untouched.
  struct Golden {
    const char* shape;
    double frequency;
    long newton, accepted, rejected;
  };
  const Golden golden[] = {
      {"N1.2-6S", 0x1.4deebf8abef74p+29, 6846, 3352, 0},
      {"N1.2-6D", 0x1.4cea805421e29p+30, 7458, 3352, 0},
      {"N2.4-6D", 0x1.1e26af1857e18p+30, 7568, 3352, 0},
      {"N1.2x2-6S", 0x1.21b7e58608049p+30, 7501, 3352, 0},
      {"N1.2-12D", 0x1.b4a99ba90bcf3p+30, 7677, 3352, 0},
      {"N1.2x2-6T", 0x1.ad1beb56030ap+30, 7684, 3352, 0},
  };
  static bg::ModelGenerator gen =
      bg::ModelGenerator::withDefaultTechnology();
  for (const Golden& g : golden) {
    auto spec = defaultSpec();
    spec.diffPairModel = gen.generate(g.shape);
    sp::AnalyzerStats stats;
    const auto m = bg::measureRingFrequency(spec, 10.0, 3.0, {}, &stats);
    EXPECT_TRUE(m.oscillating) << g.shape;
    EXPECT_EQ(m.frequency, g.frequency)
        << g.shape << ": " << hexFloat(m.frequency) << " vs "
        << hexFloat(g.frequency);
    EXPECT_EQ(stats.newtonIterations, g.newton) << g.shape;
    EXPECT_EQ(stats.acceptedSteps, g.accepted) << g.shape;
    EXPECT_EQ(stats.rejectedSteps, g.rejected) << g.shape;
  }
}
