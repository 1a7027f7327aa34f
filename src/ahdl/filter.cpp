#include "ahdl/filter.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "util/error.h"
#include "util/units.h"

namespace ahfic::ahdl {

using util::constants::kPi;

BiquadChain::BiquadChain(std::vector<Biquad> sections)
    : sections_(std::move(sections)),
      z1_(sections_.size(), 0.0),
      z2_(sections_.size(), 0.0) {}

double BiquadChain::process(double x) {
  for (size_t i = 0; i < sections_.size(); ++i)
    x = sections_[i].process(x, z1_[i], z2_[i]);
  return x;
}

void BiquadChain::processFrame(const double* in, double* out, size_t n) {
  if (sections_.empty()) {
    std::copy(in, in + n, out);
    return;
  }
  // Each section sees the same input sequence as in sample-major order,
  // so its state registers evolve identically.
  for (size_t i = 0; i < sections_.size(); ++i) {
    const Biquad s = sections_[i];
    const double* x = i == 0 ? in : out;
    double z1 = z1_[i], z2 = z2_[i];
    for (size_t k = 0; k < n; ++k) out[k] = s.process(x[k], z1, z2);
    z1_[i] = z1;
    z2_[i] = z2;
  }
}

void BiquadChain::reset() {
  std::fill(z1_.begin(), z1_.end(), 0.0);
  std::fill(z2_.begin(), z2_.end(), 0.0);
}

double BiquadChain::magnitudeAt(double f, double fs) const {
  const std::complex<double> z =
      std::exp(std::complex<double>(0.0, -2.0 * kPi * f / fs));
  std::complex<double> h(1.0, 0.0);
  for (const auto& s : sections_) {
    h *= (s.b0 + s.b1 * z + s.b2 * z * z) /
         (1.0 + s.a1 * z + s.a2 * z * z);
  }
  return std::abs(h);
}

namespace {

void checkArgs(int order, double fc, double fs) {
  if (order < 1 || order > 12)
    throw Error("butterworth: order must be in [1, 12]");
  if (!(fc > 0.0) || fc >= fs / 2.0)
    throw Error("butterworth: cutoff must satisfy 0 < fc < fs/2");
}

/// RBJ cookbook second-order section.
Biquad rbjSection(bool highpass, double fc, double q, double fs) {
  const double w0 = 2.0 * kPi * fc / fs;
  const double cw = std::cos(w0);
  const double sw = std::sin(w0);
  const double alpha = sw / (2.0 * q);
  const double a0 = 1.0 + alpha;
  Biquad s;
  if (!highpass) {
    s.b0 = (1.0 - cw) / 2.0 / a0;
    s.b1 = (1.0 - cw) / a0;
    s.b2 = s.b0;
  } else {
    s.b0 = (1.0 + cw) / 2.0 / a0;
    s.b1 = -(1.0 + cw) / a0;
    s.b2 = s.b0;
  }
  s.a1 = (-2.0 * cw) / a0;
  s.a2 = (1.0 - alpha) / a0;
  return s;
}

/// First-order section via bilinear transform.
Biquad firstOrder(bool highpass, double fc, double fs) {
  const double k = std::tan(kPi * fc / fs);
  const double a0 = k + 1.0;
  Biquad s;
  if (!highpass) {
    s.b0 = k / a0;
    s.b1 = k / a0;
  } else {
    s.b0 = 1.0 / a0;
    s.b1 = -1.0 / a0;
  }
  s.b2 = 0.0;
  s.a1 = (k - 1.0) / a0;
  s.a2 = 0.0;
  return s;
}

BiquadChain butterworth(bool highpass, int order, double fc, double fs) {
  checkArgs(order, fc, fs);
  std::vector<Biquad> sections;
  const int pairs = order / 2;
  for (int i = 0; i < pairs; ++i) {
    // Butterworth pole-pair angle from the negative real axis:
    // phi = pi*(n - 1 - 2i) / (2n), i = 0 .. n/2 - 1.
    const double phi = kPi * (order - 1.0 - 2.0 * i) / (2.0 * order);
    const double q = 1.0 / (2.0 * std::cos(phi));
    sections.push_back(rbjSection(highpass, fc, q, fs));
  }
  if (order % 2 == 1) sections.push_back(firstOrder(highpass, fc, fs));
  return BiquadChain(std::move(sections));
}

}  // namespace

BiquadChain butterworthLowpass(int order, double fc, double fs) {
  return butterworth(false, order, fc, fs);
}

BiquadChain butterworthHighpass(int order, double fc, double fs) {
  return butterworth(true, order, fc, fs);
}

BiquadChain butterworthBandpass(int order, double f1, double f2, double fs) {
  if (!(f1 > 0.0) || f2 <= f1 || f2 >= fs / 2.0)
    throw Error("butterworthBandpass: need 0 < f1 < f2 < fs/2");
  auto hp = butterworthHighpass(order, f1, fs);
  auto lp = butterworthLowpass(order, f2, fs);
  std::vector<Biquad> all = hp.sections();
  for (const auto& s : lp.sections()) all.push_back(s);
  return BiquadChain(std::move(all));
}

}  // namespace ahfic::ahdl
