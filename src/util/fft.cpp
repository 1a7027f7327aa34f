#include "util/fft.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/units.h"

namespace ahfic::util {

namespace {
bool isPow2(size_t n) { return n != 0 && (n & (n - 1)) == 0; }
}  // namespace

size_t nextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const size_t n = data.size();
  if (!isPow2(n)) throw Error("fft: size must be a power of two");
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  const double sign = inverse ? 1.0 : -1.0;
  for (size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * constants::kTwoPi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

std::vector<SpectrumBin> amplitudeSpectrum(const std::vector<double>& signal,
                                           double sampleRate, Window window) {
  if (signal.size() < 2) throw Error("amplitudeSpectrum: too few samples");
  if (sampleRate <= 0) throw Error("amplitudeSpectrum: bad sample rate");

  const size_t n = signal.size();
  const size_t nfft = nextPow2(n);

  // Window function and its coherent gain (mean of the window).
  auto windowValue = [&](size_t i) {
    const double x =
        static_cast<double>(i) / static_cast<double>(n - 1);
    switch (window) {
      case Window::kRect:
        return 1.0;
      case Window::kHann:
        return 0.5 - 0.5 * std::cos(constants::kTwoPi * x);
      case Window::kBlackman:
        return 0.42 - 0.5 * std::cos(constants::kTwoPi * x) +
               0.08 * std::cos(2.0 * constants::kTwoPi * x);
    }
    return 1.0;
  };

  std::vector<std::complex<double>> buf(nfft, {0.0, 0.0});
  double gain = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = windowValue(i);
    gain += w;
    buf[i] = std::complex<double>(signal[i] * w, 0.0);
  }
  gain /= static_cast<double>(n);

  fft(buf);

  std::vector<SpectrumBin> out;
  const size_t half = nfft / 2;
  out.reserve(half + 1);
  const double binHz = sampleRate / static_cast<double>(nfft);
  for (size_t k = 0; k <= half; ++k) {
    double amp = std::abs(buf[k]) / (static_cast<double>(n) * gain);
    if (k != 0 && k != half) amp *= 2.0;  // single-sided
    out.push_back({binHz * static_cast<double>(k), amp});
  }
  return out;
}

std::vector<SpectralPeak> findPeaks(const std::vector<SpectrumBin>& spectrum,
                                    size_t maxPeaks, double minAmplitude) {
  std::vector<SpectralPeak> peaks;
  for (size_t k = 1; k + 1 < spectrum.size(); ++k) {
    const double a = spectrum[k - 1].amplitude;
    const double b = spectrum[k].amplitude;
    const double c = spectrum[k + 1].amplitude;
    if (b > a && b >= c && b > minAmplitude) {
      // Parabolic interpolation around the local maximum.
      const double denom = a - 2.0 * b + c;
      double delta = 0.0;
      if (std::fabs(denom) > 1e-30) delta = 0.5 * (a - c) / denom;
      delta = std::clamp(delta, -0.5, 0.5);
      const double binHz = spectrum[1].frequency - spectrum[0].frequency;
      peaks.push_back({spectrum[k].frequency + delta * binHz,
                       b - 0.25 * (a - c) * delta});
    }
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const SpectralPeak& x, const SpectralPeak& y) {
              return x.amplitude > y.amplitude;
            });
  if (peaks.size() > maxPeaks) peaks.resize(maxPeaks);
  return peaks;
}

std::vector<double> toneAmplitudes(
    std::span<const std::vector<double>* const> signals, double sampleRate,
    double frequency) {
  if (signals.empty()) throw Error("toneAmplitudes: no signals");
  const size_t n = signals[0]->size();
  for (const auto* s : signals)
    if (s->size() != n) throw Error("toneAmplitudes: unequal lengths");
  if (n < 8) throw Error("toneAmplitude: too few samples");
  if (sampleRate <= 0.0 || frequency <= 0.0 ||
      frequency >= sampleRate / 2.0)
    throw Error("toneAmplitude: frequency out of range");
  // Window and twiddles are computed once per sample for all signals;
  // each signal keeps its own re/im accumulation order.
  std::vector<double> re(signals.size(), 0.0), im(signals.size(), 0.0);
  double gain = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double x = static_cast<double>(k) / static_cast<double>(n - 1);
    const double w = 0.5 - 0.5 * std::cos(constants::kTwoPi * x);
    gain += w;
    const double ph =
        constants::kTwoPi * frequency * static_cast<double>(k) / sampleRate;
    const double c = std::cos(ph), s = std::sin(ph);
    for (size_t i = 0; i < signals.size(); ++i) {
      const double v = (*signals[i])[k];
      re[i] += v * w * c;
      im[i] += v * w * s;
    }
  }
  // Single-sided amplitude: correlation recovers A/2 * sum(w).
  std::vector<double> amps(signals.size());
  for (size_t i = 0; i < signals.size(); ++i)
    amps[i] = 2.0 * std::sqrt(re[i] * re[i] + im[i] * im[i]) / gain;
  return amps;
}

double toneAmplitude(const std::vector<double>& signal, double sampleRate,
                     double frequency) {
  const std::vector<double>* one = &signal;
  return toneAmplitudes({&one, 1}, sampleRate, frequency)[0];
}

double amplitudeNear(const std::vector<SpectrumBin>& spectrum,
                     double frequency, double tolerance) {
  double best = 0.0;
  for (const auto& bin : spectrum) {
    if (std::fabs(bin.frequency - frequency) <= tolerance)
      best = std::max(best, bin.amplitude);
  }
  return best;
}

}  // namespace ahfic::util
