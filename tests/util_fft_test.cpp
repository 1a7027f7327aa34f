#include "util/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/error.h"
#include "util/numeric.h"
#include "util/units.h"

namespace u = ahfic::util;
using u::constants::kTwoPi;

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(12);
  EXPECT_THROW(u::fft(data), ahfic::Error);
}

TEST(Fft, ForwardInverseRoundTrip) {
  u::Rng rng(3);
  std::vector<std::complex<double>> data(256);
  for (auto& x : data) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = data;
  u::fft(data);
  u::fft(data, /*inverse=*/true);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  u::Rng rng(5);
  std::vector<std::complex<double>> data(512);
  double timeEnergy = 0.0;
  for (auto& x : data) {
    x = {rng.normal(), 0.0};
    timeEnergy += std::norm(x);
  }
  u::fft(data);
  double freqEnergy = 0.0;
  for (const auto& x : data) freqEnergy += std::norm(x);
  freqEnergy /= static_cast<double>(data.size());
  EXPECT_NEAR(freqEnergy, timeEnergy, 1e-8 * timeEnergy);
}

TEST(Fft, SingleToneBin) {
  // A sine exactly on bin 32 of a 256-point FFT.
  const size_t n = 256;
  std::vector<std::complex<double>> data(n);
  for (size_t i = 0; i < n; ++i)
    data[i] = {std::sin(kTwoPi * 32.0 * i / n), 0.0};
  u::fft(data);
  // Magnitude at bin 32 should be n/2 (sine amplitude 1).
  EXPECT_NEAR(std::abs(data[32]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[31]), 0.0, 1e-9);
}

class SpectrumWindowTest : public ::testing::TestWithParam<u::Window> {};

TEST_P(SpectrumWindowTest, AmplitudeIsWindowCorrected) {
  const double fs = 1e9;
  const double f0 = 125e6;  // exactly on a bin for n = 4096
  const double amp = 0.42;
  std::vector<double> sig(4096);
  for (size_t i = 0; i < sig.size(); ++i)
    sig[i] = amp * std::sin(kTwoPi * f0 * static_cast<double>(i) / fs);
  const auto spec = u::amplitudeSpectrum(sig, fs, GetParam());
  const double measured = u::amplitudeNear(spec, f0, 2e6);
  EXPECT_NEAR(measured, amp, amp * 0.02);
}

INSTANTIATE_TEST_SUITE_P(AllWindows, SpectrumWindowTest,
                         ::testing::Values(u::Window::kRect, u::Window::kHann,
                                           u::Window::kBlackman));

TEST(Spectrum, TwoTonesFoundAsPeaks) {
  const double fs = 1e9;
  std::vector<double> sig(8192);
  for (size_t i = 0; i < sig.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    sig[i] = 1.0 * std::sin(kTwoPi * 45e6 * t) +
             0.3 * std::sin(kTwoPi * 200e6 * t);
  }
  const auto spec = u::amplitudeSpectrum(sig, fs);
  const auto peaks = u::findPeaks(spec, 2, 0.05);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_NEAR(peaks[0].frequency, 45e6, 1e6);
  EXPECT_NEAR(peaks[1].frequency, 200e6, 1e6);
  EXPECT_GT(peaks[0].amplitude, peaks[1].amplitude);
}

TEST(Spectrum, NextPow2) {
  EXPECT_EQ(u::nextPow2(1), 1u);
  EXPECT_EQ(u::nextPow2(2), 2u);
  EXPECT_EQ(u::nextPow2(3), 4u);
  EXPECT_EQ(u::nextPow2(1000), 1024u);
}

TEST(Spectrum, RejectsBadInputs) {
  EXPECT_THROW(u::amplitudeSpectrum({1.0}, 1e9), ahfic::Error);
  EXPECT_THROW(u::amplitudeSpectrum({1.0, 2.0}, 0.0), ahfic::Error);
}

TEST(Spectrum, ToneAmplitudesMatchSingleCallsBitForBit) {
  // Shared window and twiddles; each signal keeps its own sums.
  std::vector<double> a(1000), b(1000), c(999);
  for (size_t k = 0; k < a.size(); ++k) {
    a[k] = std::sin(0.05 * static_cast<double>(k));
    b[k] = 1e-3 * std::cos(0.11 * static_cast<double>(k)) + 0.2;
  }
  const std::vector<double>* both[] = {&a, &b};
  const auto amps = u::toneAmplitudes(both, 1e6, 12e3);
  ASSERT_EQ(amps.size(), 2u);
  const double one = u::toneAmplitude(a, 1e6, 12e3);
  const double two = u::toneAmplitude(b, 1e6, 12e3);
  EXPECT_EQ(std::memcmp(&amps[0], &one, sizeof one), 0);
  EXPECT_EQ(std::memcmp(&amps[1], &two, sizeof two), 0);

  const std::vector<double>* unequal[] = {&a, &c};
  EXPECT_THROW(u::toneAmplitudes(unequal, 1e6, 12e3), ahfic::Error);
  EXPECT_THROW(u::toneAmplitudes({}, 1e6, 12e3), ahfic::Error);
}
