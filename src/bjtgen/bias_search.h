#pragma once
// BiasSearch: the base-emitter bias that drives a target collector
// current, found as a bracketed secant search on
//
//   g(v) = ln Ic(v) - ln Ic_target,   v in [kVbeMin, kVbeMax].
//
// The search is a plain value that never touches a circuit: the caller
// solves an operating point at next() and reports its collector current
// with observe(), until done(). FtExtractor runs one per measurement and
// BatchFtExtractor one per die in masked lockstep, so both planes visit
// the same trial sequence by construction.
//
// Steps. The first trial is the caller's start point, estimateVbe() of
// the card in both extractors. Each next
// trial is the secant through the last two evaluations; the first step,
// with only one evaluation, uses the ideal-diode slope 1/Vt. The trial
// falls back to the midpoint of the current bracket whenever the secant
// leaves the bracket or its slope is not positive. A range end is solved
// only when the secant points at or past it before any trial has
// established that side of the bracket; it is then an ordinary trial.
//
// Outcome. Converged when |Ic - target| < 1e-3 * target. Out of range
// when a solved range end shows Ic(kVbeMin) >= target or
// Ic(kVbeMax) <= target. After kMaxEvaluations trials the search stops at
// its last one. vbe() is always the last point solved, so the caller's
// last operating point is already the answer's.

#include "spice/models.h"

namespace ahfic::bjtgen {

/// First-guess Vbe for collector current `ic` from a card's Gummel-Poon
/// DC parameters: the transport current under high injection,
/// IS * exp(Vbe' / (NF * Vt)) = Ic * (1 + Ic / IKF), plus the drops of
/// the base current across RB (its zero-bias value) and of the emitter
/// current across RE. Early effect, leakage and base-resistance
/// modulation are left to the search.
double estimateVbe(const spice::BjtModel& card, double ic);

class BiasSearch {
 public:
  static constexpr double kVbeMin = 0.3;   ///< lower range end [V]
  static constexpr double kVbeMax = 1.15;  ///< upper range end [V]
  static constexpr int kMaxEvaluations = 60;
  static constexpr const char* kOutOfRangeError =
      "FtExtractor: target current out of bias range";

  /// Starts at `vbeStart`, clamped to 10 mV inside the range so that
  /// the range ends stay unsolved until the search needs them (a
  /// non-finite start means the midpoint). Throws ahfic::Error unless
  /// icTarget > 0.
  BiasSearch(double icTarget, double vbeStart);

  /// The Vbe to solve next; meaningful while !done().
  double next() const { return next_; }
  /// Records the collector current solved at next().
  void observe(double ic);

  bool done() const { return done_; }
  /// The target lies outside [Ic(kVbeMin), Ic(kVbeMax)].
  bool outOfRange() const { return outOfRange_; }
  /// The last Vbe solved (the answer once done() && !outOfRange()).
  double vbe() const { return last_; }
  int evaluations() const { return evaluations_; }

 private:
  double target_;
  bool done_ = false, outOfRange_ = false;
  double next_ = 0.5 * (kVbeMin + kVbeMax);  // for a non-finite start
  double last_ = 0.0;
  int evaluations_ = 0;
  // Bracket; a side is established once a trial has landed on it.
  double lo_ = kVbeMin, hi_ = kVbeMax;
  bool loKnown_ = false, hiKnown_ = false;
  // The previous evaluation, for the secant slope.
  double vPrev_ = 0.0, gPrev_ = 0.0;
};

}  // namespace ahfic::bjtgen
