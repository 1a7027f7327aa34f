#pragma once
// Image-rejection-ratio analysis — the quantity the paper's Fig. 5 plots
// against phase error with gain balance as a parameter.
//
// Two routes to the same number:
//  * analytic: the classic phasor formula for a quadrature image-reject
//    mixer with gain imbalance g and total quadrature phase error phi:
//        IRR = (1 + 2(1+g)cos(phi) + (1+g)^2) /
//              (1 - 2(1+g)cos(phi) + (1+g)^2)        [power ratio]
//  * simulated: run the Fig. 4 behavioural tuner with wanted-only and
//    image-only stimulus (two lanes of one AHDL pass) and compare the
//    2nd-IF tone amplitudes — this is the experiment the paper ran in its
//    AHDL simulator.

#include <cstdint>
#include <vector>

#include "tuner/doublesuper.h"

namespace ahfic::tuner {

/// Analytic IRR in dB for a total quadrature phase error (degrees) and a
/// relative gain imbalance (0.01 = 1%).
double analyticImageRejectionDb(double phaseErrorDeg, double gainImbalance);

/// Options for the simulated measurement.
struct IrrSimOptions {
  FrequencyPlan plan;
  double rfTuned = 500e6;
  double measureSeconds = 1.2e-6;   ///< after settling
  double settleSeconds = 0.6e-6;    ///< filter/start-up discard
};

/// Time-domain IRR in dB: the wanted-only and image-only Fig. 4 chains
/// run as two lanes of one pass (ahdl::runLanes), bit-identical to two
/// separate runs.
double simulateImageRejectionDb(const ImageRejectImpairments& imp,
                                const IrrSimOptions& opts = {});

/// Monte-Carlo yield of the image-rejection spec under process variation
/// (the paper's Sec. 2: "examine the performance of this system taking IC
/// process variations into account"). Phase error and gain imbalance of
/// the quadrature paths are drawn as zero-mean normals.
struct IrrYieldResult {
  int samples = 0;
  int passing = 0;
  double meanIrrDb = 0.0;
  double worstIrrDb = 0.0;
  double yield() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(passing) / samples;
  }
};

/// Reusable sample buffers for irrYield: callers looping over corners or
/// chunks hand the same scratch back in so the per-call allocations
/// disappear from the inner loop. Default-constructed scratch is valid.
struct IrrYieldScratch {
  std::vector<double> phi, gain, irr;
};

IrrYieldResult irrYield(double sigmaPhaseDeg, double sigmaGain,
                        double targetDb, int samples,
                        std::uint64_t seed = 1,
                        IrrYieldScratch* scratch = nullptr);

/// Combines two partial yield studies (sample-count weighted mean, min of
/// worst cases, summed pass counts). Lets a large study be split into
/// independently-seeded chunks, fanned out by the batch runner, and
/// reduced back — deterministic for a fixed chunking regardless of the
/// execution order.
IrrYieldResult mergeIrrYield(const IrrYieldResult& a,
                             const IrrYieldResult& b);

}  // namespace ahfic::tuner
