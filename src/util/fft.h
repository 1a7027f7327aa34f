#pragma once
// Radix-2 FFT and spectrum utilities.
//
// Used by the tuner spectrum bench (Fig. 3) and by the transient-waveform
// measurement helpers to locate tones. Self-contained: no external DSP
// dependency.

#include <complex>
#include <span>
#include <vector>

namespace ahfic::util {

/// In-place iterative radix-2 Cooley-Tukey FFT.
/// `data.size()` must be a power of two. `inverse` selects the IFFT, which
/// includes the 1/N normalisation.
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

/// Next power of two >= n (n >= 1).
size_t nextPow2(size_t n);

/// Window shapes for spectrum estimation.
enum class Window { kRect, kHann, kBlackman };

/// One bin of a single-sided amplitude spectrum.
struct SpectrumBin {
  double frequency;  ///< Hz
  double amplitude;  ///< linear, window-gain corrected
};

/// Computes the single-sided amplitude spectrum of a real signal sampled at
/// `sampleRate` Hz. The signal is windowed, zero-padded to a power of two,
/// and amplitude-corrected for the window's coherent gain, so a full-scale
/// sine reports its true amplitude at its bin.
std::vector<SpectrumBin> amplitudeSpectrum(const std::vector<double>& signal,
                                           double sampleRate,
                                           Window window = Window::kHann);

/// A spectral peak: local maximum refined by parabolic interpolation.
struct SpectralPeak {
  double frequency;  ///< Hz, interpolated
  double amplitude;  ///< linear, interpolated
};

/// Finds up to `maxPeaks` highest local maxima in `spectrum` that exceed
/// `minAmplitude`, sorted by descending amplitude.
std::vector<SpectralPeak> findPeaks(const std::vector<SpectrumBin>& spectrum,
                                    size_t maxPeaks,
                                    double minAmplitude = 0.0);

/// Amplitude (in the same linear units as SpectrumBin) of the spectrum near
/// `frequency`: the maximum amplitude over bins within +/- `tolerance` Hz.
double amplitudeNear(const std::vector<SpectrumBin>& spectrum,
                     double frequency, double tolerance);

/// Amplitude of the sinusoidal component of `signal` at exactly
/// `frequency`, via Hann-windowed quadrature correlation (a Goertzel-style
/// single-frequency probe that is not restricted to FFT bins). Accurate to
/// well below -60 dBc in the presence of other tones, which the tuner
/// image-rejection measurement needs.
double toneAmplitude(const std::vector<double>& signal, double sampleRate,
                     double frequency);

/// toneAmplitude of several equal-length signals at once, each result
/// bit-identical to its own toneAmplitude call: the window and the
/// twiddles are computed once per sample for all of them.
std::vector<double> toneAmplitudes(
    std::span<const std::vector<double>* const> signals, double sampleRate,
    double frequency);

}  // namespace ahfic::util
