#pragma once
// IIR filter design for behavioural blocks: biquad sections and
// Butterworth low-/high-/band-pass design (RBJ bilinear-transform
// sections with Butterworth pole Q values).

#include <cstddef>
#include <vector>

namespace ahfic::ahdl {

/// One direct-form-II-transposed biquad section.
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;  ///< numerator
  double a1 = 0.0, a2 = 0.0;            ///< denominator (a0 normalised to 1)

  /// Processes one sample, updating the two state registers.
  double process(double x, double& z1, double& z2) const {
    const double y = b0 * x + z1;
    z1 = b1 * x - a1 * y + z2;
    z2 = b2 * x - a2 * y;
    return y;
  }
};

/// A cascade of biquads with its state; copyable value type.
class BiquadChain {
 public:
  BiquadChain() = default;
  explicit BiquadChain(std::vector<Biquad> sections);

  /// Filters one sample through the cascade.
  double process(double x);
  /// Filters `n` samples; bit-identical to calling process() on each.
  /// Runs section by section; `out` may equal `in`.
  void processFrame(const double* in, double* out, size_t n);
  /// Clears the state registers.
  void reset();

  size_t sectionCount() const { return sections_.size(); }
  const std::vector<Biquad>& sections() const { return sections_; }

  /// Magnitude response at frequency f for sample rate fs (analysis aid).
  double magnitudeAt(double f, double fs) const;

 private:
  std::vector<Biquad> sections_;
  std::vector<double> z1_, z2_;
};

/// Butterworth low-pass of order `order` with cutoff `fc` at sample rate
/// `fs`. Throws ahfic::Error for fc >= fs/2 or order < 1.
BiquadChain butterworthLowpass(int order, double fc, double fs);

/// Butterworth high-pass.
BiquadChain butterworthHighpass(int order, double fc, double fs);

/// Band-pass as a cascade of an order-`order` high-pass at f1 and an
/// order-`order` low-pass at f2 (wideband approximation; suits the tuner's
/// IF filters). Requires f1 < f2 < fs/2.
BiquadChain butterworthBandpass(int order, double f1, double f2, double fs);

}  // namespace ahfic::ahdl
