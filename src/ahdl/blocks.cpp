#include "ahdl/blocks.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/restrict.h"
#include "util/units.h"

namespace ahfic::ahdl {

using util::constants::kPi;
using util::constants::kTwoPi;

SineSource::SineSource(std::string name, double freqHz, double amplitude,
                       double phaseDeg, double offset)
    : Block(std::move(name), 0, 1),
      freq_(freqHz),
      amp_(amplitude),
      phaseRad_(phaseDeg * kPi / 180.0),
      offset_(offset) {
  if (freqHz <= 0.0) throw Error("SineSource: frequency must be > 0");
}

void SineSource::step(std::span<const double>, std::span<double> out,
                      double t) {
  out[0] = offset_ + amp_ * std::sin(kTwoPi * freq_ * t + phaseRad_);
}

void SineSource::stepFrame(std::span<const double* const> in,
                           std::span<double* const> out,
                           std::span<const double> t) {
  Block* self = this;
  const FrameIo io{in, out};
  stepLanes({&self, 1}, {&io, 1}, t);
}

void SineSource::stepLanes(std::span<Block* const> lanes,
                           std::span<const FrameIo> io,
                           std::span<const double> t) {
  // Lanes with equal frequency and phase share one sin per sample: the
  // first of them (the leader) holds the raw sine in its output until
  // every follower has applied its own offset and amplitude to it.
  auto lane = [&](size_t l) { return static_cast<SineSource*>(lanes[l]); };
  auto sameTone = [&](size_t a, size_t b) {
    return lane(a)->freq_ == lane(b)->freq_ &&
           lane(a)->phaseRad_ == lane(b)->phaseRad_;
  };
  for (size_t l = 0; l < lanes.size(); ++l) {
    bool follower = false;
    for (size_t j = 0; j < l && !follower; ++j) follower = sameTone(j, l);
    if (follower) continue;
    const SineSource& lead = *lane(l);
    double* AHFIC_RESTRICT raw = io[l].out[0];
    for (size_t k = 0; k < t.size(); ++k)
      raw[k] = std::sin(kTwoPi * lead.freq_ * t[k] + lead.phaseRad_);
    for (size_t j = l + 1; j < lanes.size(); ++j) {
      if (!sameTone(l, j)) continue;
      const double off = lane(j)->offset_, amp = lane(j)->amp_;
      double* AHFIC_RESTRICT y = io[j].out[0];
      for (size_t k = 0; k < t.size(); ++k) y[k] = off + amp * raw[k];
    }
    for (size_t k = 0; k < t.size(); ++k)
      raw[k] = lead.offset_ + lead.amp_ * raw[k];
  }
}

DcSource::DcSource(std::string name, double value)
    : Block(std::move(name), 0, 1), value_(value) {}

void DcSource::step(std::span<const double>, std::span<double> out, double) {
  out[0] = value_;
}

NoiseSource::NoiseSource(std::string name, double sigma, std::uint64_t seed)
    : Block(std::move(name), 0, 1), sigma_(sigma), rng_(seed) {
  if (sigma < 0.0) throw Error("NoiseSource: sigma must be >= 0");
}

void NoiseSource::step(std::span<const double>, std::span<double> out,
                       double) {
  out[0] = rng_.normal(0.0, sigma_);
}

Amplifier::Amplifier(std::string name, double gain, double vsat)
    : Block(std::move(name), 1, 1), gain_(gain), vsat_(vsat) {}

void Amplifier::step(std::span<const double> in, std::span<double> out,
                     double) {
  const double x = gain_ * in[0];
  out[0] = (vsat_ > 0.0) ? vsat_ * std::tanh(x / vsat_) : x;
}

void Amplifier::stepFrame(std::span<const double* const> in,
                          std::span<double* const> out,
                          std::span<const double> t) {
  const double* AHFIC_RESTRICT x = in[0];
  double* AHFIC_RESTRICT y = out[0];
  if (vsat_ > 0.0) {
    for (size_t k = 0; k < t.size(); ++k)
      y[k] = vsat_ * std::tanh(gain_ * x[k] / vsat_);
  } else {
    for (size_t k = 0; k < t.size(); ++k) y[k] = gain_ * x[k];
  }
}

Mixer::Mixer(std::string name, double gain)
    : Block(std::move(name), 2, 1), gain_(gain) {}

void Mixer::step(std::span<const double> in, std::span<double> out, double) {
  out[0] = gain_ * in[0] * in[1];
}

void Mixer::stepFrame(std::span<const double* const> in,
                      std::span<double* const> out,
                      std::span<const double> t) {
  const double* a = in[0];
  const double* b = in[1];  // may be the same signal as a
  double* AHFIC_RESTRICT y = out[0];
  for (size_t k = 0; k < t.size(); ++k) y[k] = gain_ * a[k] * b[k];
}

Adder::Adder(std::string name, int nInputs)
    : Block(std::move(name), nInputs, 1),
      weights_(static_cast<size_t>(nInputs), 1.0) {
  if (nInputs < 1) throw Error("Adder: need at least one input");
}

Adder::Adder(std::string name, std::vector<double> weights)
    : Block(std::move(name), static_cast<int>(weights.size()), 1),
      weights_(std::move(weights)) {
  if (weights_.empty()) throw Error("Adder: need at least one input");
}

void Adder::step(std::span<const double> in, std::span<double> out, double) {
  double s = 0.0;
  for (size_t i = 0; i < weights_.size(); ++i) s += weights_[i] * in[i];
  out[0] = s;
}

void Adder::stepFrame(std::span<const double* const> in,
                      std::span<double* const> out,
                      std::span<const double> t) {
  // Input-major, but each sample still sums 0.0 + w0*x0 + w1*x1 + ...
  double* AHFIC_RESTRICT y = out[0];
  std::fill(y, y + t.size(), 0.0);
  for (size_t i = 0; i < weights_.size(); ++i) {
    const double w = weights_[i];
    const double* AHFIC_RESTRICT x = in[i];
    for (size_t k = 0; k < t.size(); ++k) y[k] += w * x[k];
  }
}

QuadratureOscillator::QuadratureOscillator(std::string name, double freqHz,
                                           double amplitude,
                                           double phaseErrorDeg,
                                           double gainImbalance)
    : Block(std::move(name), 0, 2),
      freq_(freqHz),
      amp_(amplitude),
      phaseErrRad_(phaseErrorDeg * kPi / 180.0),
      gainImb_(gainImbalance) {
  if (freqHz <= 0.0)
    throw Error("QuadratureOscillator: frequency must be > 0");
}

void QuadratureOscillator::step(std::span<const double>,
                                std::span<double> out, double t) {
  const double w = kTwoPi * freq_ * t;
  out[0] = amp_ * std::cos(w);
  out[1] = amp_ * (1.0 + gainImb_) * std::sin(w + phaseErrRad_);
}

void QuadratureOscillator::stepFrame(std::span<const double* const>,
                                     std::span<double* const> out,
                                     std::span<const double> t) {
  double* AHFIC_RESTRICT i = out[0];
  double* AHFIC_RESTRICT q = out[1];
  for (size_t k = 0; k < t.size(); ++k) {
    const double w = kTwoPi * freq_ * t[k];
    i[k] = amp_ * std::cos(w);
    q[k] = amp_ * (1.0 + gainImb_) * std::sin(w + phaseErrRad_);
  }
}

void QuadratureOscillator::stepLanes(std::span<Block* const> lanes,
                                     std::span<const FrameIo> io,
                                     std::span<const double> t) {
  // A lane equal to an earlier one copies that lane's outputs.
  auto lane = [&](size_t l) {
    return static_cast<const QuadratureOscillator*>(lanes[l]);
  };
  for (size_t l = 0; l < lanes.size(); ++l) {
    size_t src = l;
    for (size_t j = 0; j < l && src == l; ++j)
      if (lane(j)->freq_ == lane(l)->freq_ && lane(j)->amp_ == lane(l)->amp_ &&
          lane(j)->phaseErrRad_ == lane(l)->phaseErrRad_ &&
          lane(j)->gainImb_ == lane(l)->gainImb_)
        src = j;
    if (src == l) {
      lanes[l]->stepFrame(io[l].in, io[l].out, t);
      continue;
    }
    for (size_t p = 0; p < 2; ++p)
      std::copy(io[src].out[p], io[src].out[p] + t.size(), io[l].out[p]);
  }
}

PhaseShifter90::PhaseShifter90(std::string name, double centerFreqHz,
                               double errorDeg)
    : Block(std::move(name), 1, 1),
      centerFreq_(centerFreqHz),
      errorDeg_(errorDeg) {
  if (centerFreqHz <= 0.0)
    throw Error("PhaseShifter90: centre frequency must be > 0");
}

void PhaseShifter90::prepare(double sampleRate) {
  const double delaySeconds =
      (90.0 + errorDeg_) / 360.0 / centerFreq_;
  const double delaySamples = delaySeconds * sampleRate;
  if (delaySamples < 1.0)
    throw Error("PhaseShifter90 '" + name() +
                "': sample rate too low for the requested shift");
  intDelay_ = static_cast<size_t>(delaySamples);
  frac_ = delaySamples - static_cast<double>(intDelay_);
  line_.assign(intDelay_ + 2, 0.0);
  head_ = 0;
}

void PhaseShifter90::step(std::span<const double> in, std::span<double> out,
                          double) {
  line_[head_] = in[0];
  const size_t n = line_.size();
  const size_t i0 = (head_ + n - intDelay_) % n;
  const size_t i1 = (head_ + n - intDelay_ - 1) % n;
  out[0] = (1.0 - frac_) * line_[i0] + frac_ * line_[i1];
  head_ = (head_ + 1) % n;
}

void PhaseShifter90::stepFrame(std::span<const double* const> in,
                               std::span<double* const> out,
                               std::span<const double> t) {
  // step() with the ring indices advanced instead of recomputed.
  const double* AHFIC_RESTRICT x = in[0];
  double* AHFIC_RESTRICT y = out[0];
  const size_t n = line_.size();
  size_t i0 = (head_ + n - intDelay_) % n;
  size_t i1 = (head_ + n - intDelay_ - 1) % n;
  for (size_t k = 0; k < t.size(); ++k) {
    line_[head_] = x[k];
    y[k] = (1.0 - frac_) * line_[i0] + frac_ * line_[i1];
    if (++head_ == n) head_ = 0;
    if (++i0 == n) i0 = 0;
    if (++i1 == n) i1 = 0;
  }
}

FilterBlock::FilterBlock(std::string name, BiquadChain chain)
    : Block(std::move(name), 1, 1), chain_(std::move(chain)) {}

FilterBlock::FilterBlock(std::string name, Kind kind, int order, double f1,
                         double f2, bool clampToNyquist)
    : Block(std::move(name), 1, 1),
      deferred_(true),
      kind_(kind),
      order_(order),
      f1_(f1),
      f2_(f2),
      clampToNyquist_(clampToNyquist) {}

void FilterBlock::prepare(double sampleRate) {
  if (deferred_) {
    double f1 = f1_, f2 = f2_;
    if (clampToNyquist_) {
      f1 = std::min(f1, 0.45 * sampleRate);
      f2 = std::min(f2, 0.45 * sampleRate);
    }
    switch (kind_) {
      case Kind::kLowpass:
        chain_ = butterworthLowpass(order_, f1, sampleRate);
        break;
      case Kind::kHighpass:
        chain_ = butterworthHighpass(order_, f1, sampleRate);
        break;
      case Kind::kBandpass:
        chain_ = butterworthBandpass(order_, f1, f2, sampleRate);
        break;
    }
  }
  chain_.reset();
}

void FilterBlock::step(std::span<const double> in, std::span<double> out,
                       double) {
  out[0] = chain_.process(in[0]);
}

void FilterBlock::stepFrame(std::span<const double* const> in,
                            std::span<double* const> out,
                            std::span<const double> t) {
  chain_.processFrame(in[0], out[0], t.size());
}

Limiter::Limiter(std::string name, double level)
    : Block(std::move(name), 1, 1), level_(level) {
  if (level <= 0.0) throw Error("Limiter: level must be > 0");
}

void Limiter::step(std::span<const double> in, std::span<double> out,
                   double) {
  out[0] = std::clamp(in[0], -level_, level_);
}

AttenuatorDb::AttenuatorDb(std::string name, double db)
    : Block(std::move(name), 1, 1), factor_(std::pow(10.0, db / 20.0)) {}

void AttenuatorDb::step(std::span<const double> in, std::span<double> out,
                        double) {
  out[0] = factor_ * in[0];
}

Vco::Vco(std::string name, double centerFreqHz, double kvcoHzPerVolt,
         double amplitude)
    : Block(std::move(name), 1, 2),
      f0_(centerFreqHz),
      kvco_(kvcoHzPerVolt),
      amp_(amplitude) {
  if (centerFreqHz <= 0.0) throw Error("Vco: centre frequency must be > 0");
}

void Vco::prepare(double sampleRate) {
  dt_ = 1.0 / sampleRate;
  phase_ = 0.0;
}

void Vco::step(std::span<const double> in, std::span<double> out, double) {
  const double f = std::max(f0_ + kvco_ * in[0], 0.0);
  phase_ += kTwoPi * f * dt_;
  if (phase_ > 64.0 * kTwoPi) phase_ -= 64.0 * kTwoPi;  // keep it bounded
  out[0] = amp_ * std::sin(phase_);
  out[1] = amp_ * std::cos(phase_);
}

IntegratorBlock::IntegratorBlock(std::string name, double gain,
                                 double initial)
    : Block(std::move(name), 1, 1), gain_(gain), initial_(initial) {}

void IntegratorBlock::prepare(double sampleRate) {
  dt_ = 1.0 / sampleRate;
  acc_ = initial_;
}

void IntegratorBlock::step(std::span<const double> in, std::span<double> out,
                           double) {
  acc_ += gain_ * in[0] * dt_;
  out[0] = acc_;
}

Comparator::Comparator(std::string name, double threshold, double hyst,
                       double low, double high)
    : Block(std::move(name), 1, 1),
      threshold_(threshold),
      hyst_(hyst),
      low_(low),
      high_(high) {
  if (hyst < 0.0) throw Error("Comparator: hysteresis must be >= 0");
}

void Comparator::prepare(double) { state_ = false; }

void Comparator::step(std::span<const double> in, std::span<double> out,
                      double) {
  if (in[0] > threshold_ + hyst_ / 2.0)
    state_ = true;
  else if (in[0] < threshold_ - hyst_ / 2.0)
    state_ = false;
  out[0] = state_ ? high_ : low_;
}

SampleHold::SampleHold(std::string name) : Block(std::move(name), 2, 1) {}

void SampleHold::prepare(double) {
  held_ = 0.0;
  lastClockHigh_ = false;
}

void SampleHold::step(std::span<const double> in, std::span<double> out,
                      double) {
  const bool clockHigh = in[1] > 0.5;
  if (clockHigh && !lastClockHigh_) held_ = in[0];
  lastClockHigh_ = clockHigh;
  out[0] = held_;
}

FrequencyDivider::FrequencyDivider(std::string name, int divideBy)
    : Block(std::move(name), 1, 1), halfCount_(divideBy / 2) {
  if (divideBy < 2 || divideBy % 2 != 0)
    throw Error("FrequencyDivider: divide ratio must be even and >= 2");
}

void FrequencyDivider::prepare(double) {
  edges_ = 0;
  out_ = 1.0;
  lastHigh_ = false;
}

void FrequencyDivider::step(std::span<const double> in,
                            std::span<double> out, double) {
  const bool high = in[0] > 0.0;
  if (high && !lastHigh_) {
    if (++edges_ >= halfCount_) {
      edges_ = 0;
      out_ = -out_;
    }
  }
  lastHigh_ = high;
  out[0] = out_;
}

}  // namespace ahfic::ahdl
