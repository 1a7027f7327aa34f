// Frame schedule and lanes of the behavioural engine: every run must be
// bit-identical to stepping each block once per sample in declaration
// order, and N systems run as lanes must equal N single runs.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ahdl/blocks.h"
#include "ahdl/system.h"
#include "obs/metrics.h"
#include "tuner/doublesuper.h"
#include "util/error.h"

namespace ah = ahfic::ahdl;
namespace tn = ahfic::tuner;

namespace {

/// A power of two, so n / kFs and the sample times are exact.
constexpr double kFs = 67108864.0;

/// The engine's per-sample semantics written out plainly: each block
/// steps once per sample in declaration order and reads every signal's
/// latest value. It takes the same add<T>() calls as a System and is the
/// oracle the frame schedule must match bit for bit.
class PerSampleReference {
 public:
  template <typename T, typename... Args>
  void add(const std::vector<std::string>& inputs,
           const std::vector<std::string>& outputs, Args&&... args) {
    Stage stage{std::make_unique<T>(std::forward<Args>(args)...), {}, {}};
    for (const auto& s : inputs) stage.in.push_back(id(s));
    for (const auto& s : outputs) stage.out.push_back(id(s));
    stages_.push_back(std::move(stage));
  }
  void probe(const std::string& signal) { probes_.push_back(signal); }

  ah::SimResult run(double tstop, double fs, double recordFrom) {
    for (auto& st : stages_) st.block->prepare(fs);
    std::vector<double> value(ids_.size(), 0.0);
    ah::SimResult res;
    res.sampleRate = fs;
    for (const auto& p : probes_) res.traces[p];
    const auto n = static_cast<size_t>(tstop * fs);
    const double dt = 1.0 / fs;
    for (size_t k = 0; k < n; ++k) {
      const double t = static_cast<double>(k) * dt;
      for (auto& st : stages_) {
        std::vector<double> in, out(st.out.size());
        for (size_t s : st.in) in.push_back(value[s]);
        st.block->step(in, out, t);
        for (size_t p = 0; p < out.size(); ++p) value[st.out[p]] = out[p];
      }
      if (t >= recordFrom) {
        res.time.push_back(t);
        for (const auto& p : probes_) res.traces[p].push_back(value[id(p)]);
      }
    }
    return res;
  }

 private:
  struct Stage {
    std::unique_ptr<ah::Block> block;
    std::vector<size_t> in, out;
  };
  size_t id(const std::string& s) {
    return ids_.emplace(s, ids_.size()).first->second;
  }
  std::vector<Stage> stages_;
  std::map<std::string, size_t> ids_;
  std::vector<std::string> probes_;
};

/// Every block with its own stepFrame, blocks on the default one, a
/// feedback loop, a self-reading accumulator, a signal with two writers
/// and an unwritten signal — on either a System or the reference.
struct ChainParams {
  double toneHz = 5e6, toneAmp = 0.8, loPhaseErrDeg = 2.0;
};

template <typename Sink>
void buildMixedChain(Sink& sys, const ChainParams& p) {
  sys.template add<ah::SineSource>({}, {"a"}, "a", p.toneHz, p.toneAmp, 10.0,
                                   0.1);
  sys.template add<ah::QuadratureOscillator>({}, {"li", "lq"}, "lo", 3.1e6,
                                             1.0, p.loPhaseErrDeg, 0.05);
  sys.template add<ah::Mixer>({"a", "li"}, {"m"}, "mix", 2.0);
  sys.template add<ah::FilterBlock>({"m"}, {"f"}, "lpf",
                                    ah::FilterBlock::Kind::kLowpass, 3, 4e6);
  sys.template add<ah::PhaseShifter90>({"f"}, {"fq"}, "shift", 1e6, 1.5);
  sys.template add<ah::Amplifier>({"fq"}, {"g"}, "amp", 3.0, 0.9);
  // Feedback: "sum" reads the VCO's "fb" one sample late.
  sys.template add<ah::Adder>({"g", "lq", "fb"}, {"sum"}, "sum",
                              std::vector<double>{1.0, -0.5, 0.25});
  sys.template add<ah::Limiter>({"sum"}, {"lim"}, "lim", 1.0);
  sys.template add<ah::Vco>({"lim"}, {"fb", "vq"}, "vco", 2e6, 1e5);
  // Frame blocks fed by the loop; one reads a signal nobody writes.
  sys.template add<ah::FilterBlock>({"fb"}, {"fbf"}, "fblpf",
                                    ah::FilterBlock::Kind::kBandpass, 2,
                                    1e6, 6e6);
  sys.template add<ah::Mixer>({"vq", "floating"}, {"dead"}, "dead", 1.0);
  // Self-reading leaky accumulator.
  sys.template add<ah::Adder>({"fbf", "acc"}, {"acc"}, "accum",
                              std::vector<double>{0.01, 0.999});
  // "w" has two writers; "wm" reads the first one's value.
  sys.template add<ah::Amplifier>({"g"}, {"w"}, "w1", 0.5);
  sys.template add<ah::Mixer>({"w", "lq"}, {"wm"}, "wmix", 1.0);
  sys.template add<ah::AttenuatorDb>({"lq"}, {"w"}, "w2", -6.0);
  sys.template add<ah::NoiseSource>({}, {"n"}, "noise", 0.01, 7);
  sys.template add<ah::Adder>({"w", "n", "dead"}, {"out"}, "out", 3);
  for (const char* s : {"a", "li", "lq", "fq", "g", "sum", "fb", "fbf",
                        "acc", "w", "wm", "dead", "floating", "out"})
    sys.probe(s);
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expectSameResult(const ah::SimResult& got, const ah::SimResult& want,
                      const std::string& what) {
  EXPECT_TRUE(sameBits(got.time, want.time)) << what << ": time";
  ASSERT_EQ(got.traces.size(), want.traces.size()) << what;
  for (const auto& [name, trace] : want.traces)
    EXPECT_TRUE(sameBits(got.trace(name), trace)) << what << ": " << name;
}

ah::SimResult singleRun(const ChainParams& p, size_t n, double recordFrom) {
  ah::System sys;
  buildMixedChain(sys, p);
  return sys.run(static_cast<double>(n) / kFs, kFs, recordFrom);
}

TEST(AhdlLanes, FrameScheduleMatchesPerSampleReference) {
  // Shorter than one frame, exactly one, and not a multiple of one;
  // recording from the start and from the middle of a frame.
  for (size_t n : {100u, 256u, 600u, 1000u}) {
    for (double recordFrom : {0.0, 300.5 / kFs}) {
      PerSampleReference ref;
      buildMixedChain(ref, {});
      const double tstop = static_cast<double>(n) / kFs;
      const auto want = ref.run(tstop, kFs, recordFrom);
      const auto got = singleRun({}, n, recordFrom);
      const std::string what = "n=" + std::to_string(n) +
                               " recordFrom=" + std::to_string(recordFrom);
      expectSameResult(got, want, what);
      const size_t firstRecorded = recordFrom > 0.0 ? 301 : 0;
      EXPECT_EQ(got.time.size(), n > firstRecorded ? n - firstRecorded : 0)
          << what;
    }
  }
}

TEST(AhdlLanes, LanesWithSharedSourcesEqualSingleRuns) {
  // Equal tone frequencies and LO parameters: the lanes share the sine
  // and the quadrature LO; only the tone amplitudes differ.
  const std::vector<ChainParams> params = {
      {5e6, 0.8, 2.0}, {5e6, 1e-30, 2.0}, {5e6, -0.3, 2.0}};
  std::vector<ah::System> systems(params.size());
  std::vector<ah::System*> lanes;
  for (size_t l = 0; l < params.size(); ++l) {
    buildMixedChain(systems[l], params[l]);
    lanes.push_back(&systems[l]);
  }
  const auto got = ah::runLanes(lanes, 900.0 / kFs, kFs, 130.0 / kFs);
  ASSERT_EQ(got.size(), params.size());
  for (size_t l = 0; l < params.size(); ++l)
    expectSameResult(got[l], singleRun(params[l], 900, 130.0 / kFs),
                     "lane " + std::to_string(l));
}

TEST(AhdlLanes, LanesWithDifferentSourcesEqualSingleRuns) {
  // Lanes 0 and 2 share a tone, lane 1 has its own; the LO phase error
  // differs in lane 2 only.
  const std::vector<ChainParams> params = {
      {5e6, 0.8, 2.0}, {7e6, 0.8, 2.0}, {5e6, 0.5, -1.0}};
  std::vector<ah::System> systems(params.size());
  std::vector<ah::System*> lanes;
  for (size_t l = 0; l < params.size(); ++l) {
    buildMixedChain(systems[l], params[l]);
    lanes.push_back(&systems[l]);
  }
  const auto got = ah::runLanes(lanes, 700.0 / kFs, kFs);
  ASSERT_EQ(got.size(), params.size());
  for (size_t l = 0; l < params.size(); ++l)
    expectSameResult(got[l], singleRun(params[l], 700, 0.0),
                     "lane " + std::to_string(l));
}

TEST(AhdlLanes, Fig4WantedAndImageLanesEqualSeparateRuns) {
  tn::FrequencyPlan plan;
  tn::ImageRejectImpairments imp;
  imp.loPhaseErrorDeg = 3.0;
  imp.ifPhaseErrorDeg = -1.0;
  imp.gainImbalance = 0.05;
  auto build = [&](ah::System& sys, bool imageOnly) {
    tn::TunerStimulus stim;
    stim.tunedAmplitude = imageOnly ? 1e-30 : 1.0;
    stim.imageAmplitude = imageOnly ? 1.0 : 1e-30;
    sys.probe(tn::buildImageRejectTuner(sys, plan, stim, imp).secondIf);
    return tn::recommendedSampleRate(plan, stim);
  };
  ah::System wanted, image, wantedAlone, imageAlone;
  const double fs = build(wanted, false);
  build(image, true);
  build(wantedAlone, false);
  build(imageAlone, true);
  ah::System* const lanes[] = {&wanted, &image};
  const auto got = ah::runLanes(lanes, 0.5e-6, fs, 0.2e-6);
  expectSameResult(got[0], wantedAlone.run(0.5e-6, fs, 0.2e-6), "wanted");
  expectSameResult(got[1], imageAlone.run(0.5e-6, fs, 0.2e-6), "image");
}

TEST(AhdlLanes, TopologyMismatchThrows) {
  auto chain = [](ah::System& sys, bool attenuator, bool probeB,
                  const std::string& in) {
    sys.add<ah::SineSource>({}, {"a"}, "a", 1e6, 1.0);
    if (attenuator)
      sys.add<ah::AttenuatorDb>({in}, {"b"}, "g", 0.0);
    else
      sys.add<ah::Amplifier>({in}, {"b"}, "g", 1.0);
    sys.probe(probeB ? "b" : "a");
  };
  auto throwsWith = [&](ah::System& other) {
    ah::System base;
    chain(base, false, true, "a");
    ah::System* const lanes[] = {&base, &other};
    EXPECT_THROW(ah::runLanes(lanes, 1e-6, 1e8), ahfic::Error);
  };
  ah::System type, wiring, probes, extra;
  chain(type, true, true, "a");
  chain(wiring, false, true, "b");
  chain(probes, false, false, "a");
  chain(extra, false, true, "a");
  extra.add<ah::DcSource>({}, {"c"}, "c", 1.0);
  for (ah::System* other : {&type, &wiring, &probes, &extra})
    throwsWith(*other);

  ah::System same;
  chain(same, false, true, "a");
  ah::System* const repeated[] = {&same, &same};
  EXPECT_THROW(ah::runLanes(repeated, 1e-6, 1e8), ahfic::Error);
  EXPECT_THROW(ah::runLanes({}, 1e-6, 1e8), ahfic::Error);

  ah::System ok;
  chain(ok, false, true, "a");
  ah::System* const match[] = {&same, &ok};
  EXPECT_NO_THROW(ah::runLanes(match, 1e-6, 1e8));
}

TEST(AhdlLanes, CountersCountEveryLane) {
  std::vector<ah::System> systems(2);
  std::vector<ah::System*> lanes;
  for (auto& sys : systems) {
    buildMixedChain(sys, {});
    lanes.push_back(&sys);
  }
  ahfic::obs::setMetricsEnabled(true);
  const auto before = ahfic::obs::metrics().snapshot();
  ah::runLanes(lanes, 600.0 / kFs, kFs);
  const auto delta = ahfic::obs::metrics().snapshot().since(before);
  ahfic::obs::setMetricsEnabled(false);
  EXPECT_EQ(delta.counterValue("ahdl.runs"), 2);
  EXPECT_EQ(delta.counterValue("ahdl.block_evals"),
            static_cast<long long>(600 * systems[0].blockCount() * 2));
}

TEST(AhdlLanes, RecordingIsReservedAtItsExactLength) {
  const auto res = singleRun({}, 1000, 300.5 / kFs);
  EXPECT_EQ(res.time.size(), 699u);
  EXPECT_EQ(res.time.capacity(), res.time.size());
  for (const auto& [name, trace] : res.traces)
    EXPECT_EQ(trace.capacity(), trace.size()) << name;
}

}  // namespace
