#pragma once
// Standard behavioural block library: the function blocks the paper's
// tuner example is built from (sources, amplifiers, mixers, quadrature
// oscillators, 90-degree phase shifters, adders, filters, limiters).
//
// Non-idealities are explicit constructor parameters — gain imbalance,
// phase error, compression — because deriving per-block specifications for
// exactly these quantities is the point of the top-down method (Fig. 5).

#include <cstdint>

#include "ahdl/filter.h"
#include "ahdl/system.h"
#include "util/numeric.h"

namespace ahfic::ahdl {

/// Sine source: offset + amp * sin(2*pi*f*t + phase).
class SineSource final : public Block {
 public:
  SineSource(std::string name, double freqHz, double amplitude,
             double phaseDeg = 0.0, double offset = 0.0);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;
  void stepFrame(std::span<const double* const> in,
                 std::span<double* const> out,
                 std::span<const double> t) override;
  void stepLanes(std::span<Block* const> lanes, std::span<const FrameIo> io,
                 std::span<const double> t) override;

 private:
  double freq_, amp_, phaseRad_, offset_;
};

/// Constant source.
class DcSource final : public Block {
 public:
  DcSource(std::string name, double value);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  double value_;
};

/// White Gaussian noise source (deterministic seed).
class NoiseSource final : public Block {
 public:
  NoiseSource(std::string name, double sigma, std::uint64_t seed = 1);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  double sigma_;
  util::Rng rng_;
};

/// Amplifier with optional soft (tanh) compression.
/// out = vsat * tanh(gain * in / vsat); vsat <= 0 disables compression.
class Amplifier final : public Block {
 public:
  Amplifier(std::string name, double gain, double vsat = 0.0);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;
  void stepFrame(std::span<const double* const> in,
                 std::span<double* const> out,
                 std::span<const double> t) override;
  double gain() const { return gain_; }
  void setGain(double g) { gain_ = g; }

 private:
  double gain_, vsat_;
};

/// Multiplying mixer: out = gain * in0 * in1.
class Mixer final : public Block {
 public:
  Mixer(std::string name, double gain = 1.0);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;
  void stepFrame(std::span<const double* const> in,
                 std::span<double* const> out,
                 std::span<const double> t) override;

 private:
  double gain_;
};

/// Weighted adder of n inputs (weights default to 1).
class Adder final : public Block {
 public:
  Adder(std::string name, int nInputs);
  Adder(std::string name, std::vector<double> weights);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;
  void stepFrame(std::span<const double* const> in,
                 std::span<double* const> out,
                 std::span<const double> t) override;

 private:
  std::vector<double> weights_;
};

/// Quadrature local oscillator with impairments — the paper's VCO with
/// two outputs 90 degrees apart. Output 0: amp*cos(wt); output 1:
/// amp*(1+gainImbalance)*sin(wt + phaseErrorDeg).
class QuadratureOscillator final : public Block {
 public:
  QuadratureOscillator(std::string name, double freqHz, double amplitude,
                       double phaseErrorDeg = 0.0,
                       double gainImbalance = 0.0);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;
  void stepFrame(std::span<const double* const> in,
                 std::span<double* const> out,
                 std::span<const double> t) override;
  void stepLanes(std::span<Block* const> lanes, std::span<const FrameIo> io,
                 std::span<const double> t) override;

 private:
  double freq_, amp_, phaseErrRad_, gainImb_;
};

/// Narrowband 90-degree phase shifter implemented as a fractional-sample
/// delay of (90 + errorDeg)/360 of the centre-frequency period, with
/// linear interpolation. Accurate for signals near `centerFreq` when the
/// sample rate is well above it.
class PhaseShifter90 final : public Block {
 public:
  PhaseShifter90(std::string name, double centerFreqHz,
                 double errorDeg = 0.0);
  void prepare(double sampleRate) override;
  bool hasMemory() const override { return true; }
  void step(std::span<const double> in, std::span<double> out,
            double t) override;
  void stepFrame(std::span<const double* const> in,
                 std::span<double* const> out,
                 std::span<const double> t) override;

 private:
  double centerFreq_, errorDeg_;
  std::vector<double> line_;
  size_t head_ = 0;
  double frac_ = 0.0;
  size_t intDelay_ = 0;
};

/// IIR filter block wrapping a designed BiquadChain.
class FilterBlock final : public Block {
 public:
  /// The chain must have been designed for the run's sample rate; prefer
  /// the Design factory below when the rate is known only at run time.
  FilterBlock(std::string name, BiquadChain chain);

  /// Deferred design: the chain is created in prepare() for the actual
  /// sample rate. Kind selects the design function. With
  /// `clampToNyquist`, corner frequencies above 0.45*fs are clamped
  /// instead of rejected — used for extracted models whose bandwidth may
  /// exceed the behavioural run's Nyquist (the pole is then irrelevant).
  enum class Kind { kLowpass, kHighpass, kBandpass };
  FilterBlock(std::string name, Kind kind, int order, double f1,
              double f2 = 0.0, bool clampToNyquist = false);

  void prepare(double sampleRate) override;
  bool hasMemory() const override { return true; }
  void step(std::span<const double> in, std::span<double> out,
            double t) override;
  void stepFrame(std::span<const double* const> in,
                 std::span<double* const> out,
                 std::span<const double> t) override;

 private:
  BiquadChain chain_;
  bool deferred_ = false;
  Kind kind_ = Kind::kLowpass;
  int order_ = 0;
  double f1_ = 0.0, f2_ = 0.0;
  bool clampToNyquist_ = false;
};

/// Hard limiter: clamps to [-level, +level].
class Limiter final : public Block {
 public:
  Limiter(std::string name, double level);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  double level_;
};

/// Ideal attenuator/gain in dB.
class AttenuatorDb final : public Block {
 public:
  AttenuatorDb(std::string name, double db);
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  double factor_;
};

/// Voltage-controlled oscillator with phase accumulation:
/// f(t) = f0 + kvco * vctl(t); outputs amp*sin(phase) and amp*cos(phase).
/// The running phase makes it usable inside feedback loops (PLLs) — the
/// engine's declaration-order semantics close the loop with one sample of
/// delay.
class Vco final : public Block {
 public:
  Vco(std::string name, double centerFreqHz, double kvcoHzPerVolt,
      double amplitude = 1.0);
  void prepare(double sampleRate) override;
  bool hasMemory() const override { return true; }
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  double f0_, kvco_, amp_;
  double dt_ = 0.0;
  double phase_ = 0.0;
};

/// Discrete-time integrator: out += gain * in * dt. Used for loop filters.
class IntegratorBlock final : public Block {
 public:
  IntegratorBlock(std::string name, double gain = 1.0,
                  double initial = 0.0);
  void prepare(double sampleRate) override;
  bool hasMemory() const override { return true; }
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  double gain_, initial_;
  double dt_ = 0.0;
  double acc_ = 0.0;
};

/// Comparator with hysteresis: out = +high when in > threshold + hyst/2,
/// low when in < threshold - hyst/2, held in between. The front of every
/// ADC — the paper's systems convert to digital after the analog chain.
class Comparator final : public Block {
 public:
  Comparator(std::string name, double threshold = 0.0, double hyst = 0.0,
             double low = 0.0, double high = 1.0);
  void prepare(double sampleRate) override;
  bool hasMemory() const override { return true; }
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  double threshold_, hyst_, low_, high_;
  bool state_ = false;
};

/// Sample-and-hold: captures the input on the rising edge of the clock
/// input (threshold 0.5), holds otherwise. Inputs: (signal, clock).
class SampleHold final : public Block {
 public:
  explicit SampleHold(std::string name);
  void prepare(double sampleRate) override;
  bool hasMemory() const override { return true; }
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  double held_ = 0.0;
  bool lastClockHigh_ = false;
};

/// Digital frequency divider (/N): toggles its +/-1 output every N rising
/// edges of the input's mean-zero square/sine, giving an output at
/// f_in / (2N)... conventionally a /N divider toggles every N/2 edges;
/// here out frequency = f_in / N for even N, implemented as toggle every
/// N/2 rising edges (N must be even). The prescaler of every PLL
/// synthesiser, e.g. the tuner's channel-select PLL.
class FrequencyDivider final : public Block {
 public:
  /// `divideBy` must be even and >= 2.
  FrequencyDivider(std::string name, int divideBy);
  void prepare(double sampleRate) override;
  bool hasMemory() const override { return true; }
  void step(std::span<const double> in, std::span<double> out,
            double t) override;

 private:
  int halfCount_;
  int edges_ = 0;
  double out_ = 1.0;
  bool lastHigh_ = false;
};

}  // namespace ahfic::ahdl
