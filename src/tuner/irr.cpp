#include "tuner/irr.h"

#include <cmath>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/fft.h"
#include "util/numeric.h"
#include "util/restrict.h"
#include "util/units.h"

namespace ahfic::tuner {

double analyticImageRejectionDb(double phaseErrorDeg, double gainImbalance) {
  const double a = 1.0 + gainImbalance;
  const double phi = phaseErrorDeg * util::constants::kPi / 180.0;
  const double num = 1.0 + 2.0 * a * std::cos(phi) + a * a;
  const double den = 1.0 - 2.0 * a * std::cos(phi) + a * a;
  if (den <= 0.0) return 200.0;  // mathematically perfect rejection
  return 10.0 * std::log10(num / den);
}

double simulateImageRejectionDb(const ImageRejectImpairments& imp,
                                const IrrSimOptions& opts) {
  // Lane 0 carries the wanted tone, lane 1 the image. Both keep both
  // sources (identical topology); the inactive tone gets a vanishing
  // amplitude instead of being removed, so the lanes share every sine.
  TunerStimulus stim;
  stim.rfTuned = opts.rfTuned;
  std::string secondIf;
  auto build = [&](ahdl::System& sys, bool imageOnly) {
    stim.tunedAmplitude = imageOnly ? 1e-30 : 1.0;
    stim.imageAmplitude = imageOnly ? 1.0 : 1e-30;
    secondIf = buildImageRejectTuner(sys, opts.plan, stim, imp).secondIf;
    sys.probe(secondIf);
  };
  ahdl::System wanted, image;
  build(wanted, false);
  build(image, true);

  ahdl::System* const lanes[] = {&wanted, &image};
  const double fs = recommendedSampleRate(opts.plan, stim);
  const double tstop = opts.settleSeconds + opts.measureSeconds;
  const auto res = ahdl::runLanes(lanes, tstop, fs, opts.settleSeconds);
  const std::vector<double>* traces[] = {&res[0].trace(secondIf),
                                         &res[1].trace(secondIf)};
  const auto amps = util::toneAmplitudes(traces, fs, opts.plan.if2);
  if (amps[0] <= 0.0) throw Error("simulateImageRejectionDb: no output");
  if (amps[1] <= 0.0) return 200.0;
  return 20.0 * std::log10(amps[0] / amps[1]);
}

IrrYieldResult irrYield(double sigmaPhaseDeg, double sigmaGain,
                        double targetDb, int samples, std::uint64_t seed,
                        IrrYieldScratch* scratch) {
  if (samples < 1) throw Error("irrYield: need at least one sample");
  IrrYieldScratch local;
  IrrYieldScratch& sc = scratch != nullptr ? *scratch : local;
  const size_t n = static_cast<size_t>(samples);
  sc.phi.resize(n);
  sc.gain.resize(n);
  sc.irr.resize(n);

  // Draw phase: the phi-then-gain interleave per sample is load-bearing
  // (the Rng's Box-Muller spare caching makes draw order part of the
  // result), so the draws stay in the scalar loop's exact sequence.
  util::Rng rng(seed);
  for (size_t k = 0; k < n; ++k) {
    sc.phi[k] = rng.normal(0.0, sigmaPhaseDeg);
    sc.gain[k] = rng.normal(0.0, sigmaGain);
  }

  // Evaluate phase: pure per-sample math over the whole block.
  {
    const double* AHFIC_RESTRICT phi = sc.phi.data();
    const double* AHFIC_RESTRICT gain = sc.gain.data();
    double* AHFIC_RESTRICT irr = sc.irr.data();
    for (size_t k = 0; k < n; ++k)
      irr[k] = analyticImageRejectionDb(phi[k], gain[k]);
  }

  IrrYieldResult r;
  r.samples = samples;
  r.worstIrrDb = 1e300;
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    sum += sc.irr[k];
    r.worstIrrDb = std::min(r.worstIrrDb, sc.irr[k]);
    if (sc.irr[k] >= targetDb) ++r.passing;
  }
  r.meanIrrDb = sum / samples;
  return r;
}

IrrYieldResult mergeIrrYield(const IrrYieldResult& a,
                             const IrrYieldResult& b) {
  if (a.samples == 0) return b;
  if (b.samples == 0) return a;
  IrrYieldResult r;
  r.samples = a.samples + b.samples;
  r.passing = a.passing + b.passing;
  r.meanIrrDb = (a.meanIrrDb * a.samples + b.meanIrrDb * b.samples) /
                static_cast<double>(r.samples);
  r.worstIrrDb = std::min(a.worstIrrDb, b.worstIrrDb);
  return r;
}

}  // namespace ahfic::tuner
