// Bit-exact goldens of the behavioural engine: whole traces of a feedback
// loop, of the Fig. 3 conventional chain and of the example PLL netlist,
// plus Fig. 5 image-rejection points with a 2nd-IF shifter error. Any
// engine change that claims to be bit-identical must leave them untouched.
// The values were captured at the default RelWithDebInfo build.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ahdl/blocks.h"
#include "ahdl/lang.h"
#include "ahdl/system.h"
#include "tuner/doublesuper.h"
#include "tuner/irr.h"

namespace ah = ahfic::ahdl;
namespace tn = ahfic::tuner;

namespace {

#if defined(AHFIC_NATIVE_ARCH_BUILD)
#define AHFIC_SKIP_UNDER_NATIVE_ARCH()                                  \
  GTEST_SKIP() << "-march=native may contract multiply-adds into FMA, " \
                  "which moves the pinned traces by ulps"
#else
#define AHFIC_SKIP_UNDER_NATIVE_ARCH() (void)0
#endif

/// FNV-1a over the bytes of a trace, printed as 16 hex digits.
std::string fnv1a(const std::vector<double>& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(trace.data());
  for (size_t i = 0; i < trace.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string hexFloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

TEST(AhdlGolden, PllFeedbackTraces) {
  AHFIC_SKIP_UNDER_NATIVE_ARCH();
  // The Pll.LocksToReferenceTone loop: the mixer reads the VCO's "vq"
  // before the VCO runs, so the whole loop steps sample by sample.
  ah::System sys;
  sys.add<ah::SineSource>({}, {"ref"}, "ref", 10.5e6, 1.0);
  sys.add<ah::Mixer>({"ref", "vq"}, {"pd"}, "pd", 1.0);
  sys.add<ah::FilterBlock>({"pd"}, {"pdf"}, "lpf",
                           ah::FilterBlock::Kind::kLowpass, 1, 0.8e6);
  sys.add<ah::Amplifier>({"pdf"}, {"prop"}, "kp", 2.0);
  sys.add<ah::IntegratorBlock>({"pdf"}, {"integ"}, "ki", 4e6);
  sys.add<ah::Adder>({"prop", "integ"}, {"ctl"}, "sum", 2);
  sys.add<ah::Vco>({"ctl"}, {"vs", "vq"}, "vco", 10e6, 1e6);
  sys.probe("vs");
  sys.probe("ctl");
  const auto res = sys.run(60e-6, 400e6, 40e-6);
  ASSERT_EQ(res.time.size(), 8000u);
  EXPECT_EQ(fnv1a(res.time), "5e0800a91a0eded9");
  EXPECT_EQ(fnv1a(res.trace("vs")), "4f083bf2efe3d1f5");
  EXPECT_EQ(fnv1a(res.trace("ctl")), "afc857c601d8d26d");
}

TEST(AhdlGolden, Fig3ConventionalSecondIfTrace) {
  AHFIC_SKIP_UNDER_NATIVE_ARCH();
  // Fig. 3: wanted and image channels through the conventional chain,
  // recorded as bench_fig3_spectrum records them.
  tn::FrequencyPlan plan;
  tn::TunerStimulus stim;
  stim.rfTuned = 500e6;
  stim.tunedAmplitude = 1.0;
  stim.imageAmplitude = 1.0;
  ah::System sys;
  const auto sigs = tn::buildConventionalTuner(sys, plan, stim);
  sys.probe(sigs.secondIf);
  const double fs = tn::recommendedSampleRate(plan, stim);
  const auto res = sys.run(1.8e-6, fs, 0.8e-6);
  ASSERT_EQ(res.trace(sigs.secondIf).size(), 7360u);
  EXPECT_EQ(fnv1a(res.trace(sigs.secondIf)), "769cb69010b3f382");
}

TEST(AhdlGolden, ExamplePllNetlistTraces) {
  AHFIC_SKIP_UNDER_NATIVE_ARCH();
  std::ifstream in(AHFIC_SOURCE_DIR "/examples/netlists/pll.ahdl");
  ASSERT_TRUE(in) << "cannot open examples/netlists/pll.ahdl";
  std::stringstream text;
  text << in.rdbuf();
  auto net = ah::parseAhdl(text.str());
  const auto res = net.run();
  ASSERT_EQ(res.time.size(), 7999u);
  EXPECT_EQ(fnv1a(res.trace("vs")), "8cb54749c6a46cd8");
  EXPECT_EQ(fnv1a(res.trace("ctl")), "1c367979cfc83b31");
}

TEST(AhdlGolden, Fig5PointsWithShifterError) {
  AHFIC_SKIP_UNDER_NATIVE_ARCH();
  struct Point {
    double lo, ifErr, gain;
    const char* hex;
  };
  const Point points[] = {{0.0, 2.0, 0.01, "0x1.17f871a807af4p+5"},
                          {3.0, -1.5, 0.05, "0x1.f50d05ac81114p+4"},
                          {6.0, 4.0, 0.03, "0x1.540558a97463cp+4"},
                          {10.0, 1.0, 0.09, "0x1.3baacecb04e2cp+4"}};
  for (const auto& p : points) {
    tn::ImageRejectImpairments imp;
    imp.loPhaseErrorDeg = p.lo;
    imp.ifPhaseErrorDeg = p.ifErr;
    imp.gainImbalance = p.gain;
    EXPECT_EQ(hexFloat(tn::simulateImageRejectionDb(imp)), p.hex)
        << "phi_LO=" << p.lo << " phi_IF=" << p.ifErr << " g=" << p.gain;
  }
}

}  // namespace
