// Tests for the FFT substrate: transform correctness against a naive DFT,
// bit-equality with the textbook std::complex loop, algebraic identities,
// convolution, and the windowed overlap-save engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>

#include "fft/fft.h"

namespace sit::fft {
namespace {

std::vector<cplx> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(d(rng), d(rng));
  return x;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(Fft, MatchesNaiveDftAcrossSizes) {
  for (std::size_t n : {2u, 4u, 8u, 16u, 64u, 256u}) {
    const auto x = random_signal(n, 42 + static_cast<unsigned>(n));
    EXPECT_LT(max_err(fft(x), dft_naive(x)), 1e-9 * static_cast<double>(n))
        << "size " << n;
  }
}

TEST(Fft, InverseRoundTrips) {
  const auto x = random_signal(128, 7);
  EXPECT_LT(max_err(ifft(fft(x)), x), 1e-12);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(32, cplx(0, 0));
  x[0] = cplx(1, 0);
  const auto f = fft(x);
  for (const auto& v : f) EXPECT_LT(std::abs(v - cplx(1, 0)), 1e-12);
}

TEST(Fft, LinearityHolds) {
  const auto x = random_signal(64, 1);
  const auto y = random_signal(64, 2);
  std::vector<cplx> z(64);
  for (std::size_t i = 0; i < 64; ++i) z[i] = 2.0 * x[i] + 3.0 * y[i];
  const auto fz = fft(z);
  const auto fx = fft(x);
  const auto fy = fft(y);
  std::vector<cplx> expect(64);
  for (std::size_t i = 0; i < 64; ++i) expect[i] = 2.0 * fx[i] + 3.0 * fy[i];
  EXPECT_LT(max_err(fz, expect), 1e-10);
}

TEST(Fft, ParsevalEnergyConservation) {
  const auto x = random_signal(256, 3);
  double time_e = 0.0;
  for (const auto& v : x) time_e += std::norm(v);
  const auto f = fft(x);
  double freq_e = 0.0;
  for (const auto& v : f) freq_e += std::norm(v);
  EXPECT_NEAR(freq_e / 256.0, time_e, 1e-9);
}

TEST(Fft, NonPow2Throws) {
  std::vector<cplx> x(12);
  EXPECT_THROW(fft_inplace(x, false), std::invalid_argument);
  EXPECT_THROW(Plan(12), std::invalid_argument);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

std::vector<double> naive_conv(const std::vector<double>& x,
                               const std::vector<double>& h) {
  std::vector<double> y(x.size() + h.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < h.size(); ++j) y[i + j] += x[i] * h[j];
  return y;
}

TEST(Conv, MatchesNaiveConvolution) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> x(37), h(9);
  for (auto& v : x) v = d(rng);
  for (auto& v : h) v = d(rng);
  const auto got = convolve(x, h);
  const auto want = naive_conv(x, h);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-9);
}

// ---- bit-equality with the textbook loop -----------------------------------
//
// The reference is the radix-2 loop the library used to run: std::complex
// multiplies (GCC's inline form with its __muldc3 recovery), twiddles
// computed with the same formula, conjugated for the inverse.  On finite
// data the library's real-arithmetic butterfly must equal it bit for bit.

std::vector<cplx> reference_fft(std::vector<cplx> a, bool inverse) {
  const std::size_t n = a.size();
  if (n <= 1) return a;
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    }
    if (i < r) std::swap(a[i], a[r]);
  }
  std::vector<cplx> w(n / 2);
  for (std::size_t i = 0; i < n / 2; ++i) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(i) /
                       static_cast<double>(n);
    w[i] = cplx(std::cos(ang), std::sin(ang));
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < half; ++j) {
        cplx tw = w[j * (n / len)];
        if (inverse) tw = std::conj(tw);
        const cplx u = a[base + j];
        const cplx v = a[base + j + half] * tw;
        a[base + j] = u + v;
        a[base + j + half] = u - v;
      }
    }
  }
  if (inverse) {
    for (auto& x : a) x *= 1.0 / static_cast<double>(n);
  }
  return a;
}

// Finite values of every kind the butterfly meets: zeros of both signs,
// subnormals, and normal magnitudes from 1e-150 to 1e150.
double special_value(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 5);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exp10(-150, 150);
  std::uniform_int_distribution<int> ulps(1, 1 << 20);
  switch (kind(rng)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::denorm_min() * ulps(rng) *
                   (unit(rng) < 0 ? -1.0 : 1.0);
    case 3: return unit(rng) * std::pow(10.0, exp10(rng));
    default: return unit(rng);
  }
}

bool bit_equal(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

TEST(FftReference, BitEqualToTextbookLoopOnFiniteData) {
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    for (unsigned seed = 0; seed < 8; ++seed) {
      std::mt19937 rng(static_cast<unsigned>(n) * 131u + seed);
      std::vector<cplx> x(n);
      for (auto& v : x) v = cplx(special_value(rng), special_value(rng));
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      const auto f = fft(x);
      EXPECT_TRUE(bit_equal(f, reference_fft(x, false))) << "forward";
      EXPECT_TRUE(bit_equal(ifft(x), reference_fft(x, true))) << "inverse";
      EXPECT_TRUE(bit_equal(ifft(f), reference_fft(reference_fft(x, false), true)))
          << "round trip";
    }
  }
}

// The documented difference: where an intermediate overflows to inf, the
// butterfly skips std::complex's Annex G recovery.  Both transforms go
// non-finite; at least one output the reference recovers to +-inf reads NaN
// here.
TEST(FftReference, OverflowGivesNonFiniteOutputs) {
  const double big = std::numeric_limits<double>::max();
  const std::vector<cplx> x(8, cplx(big, big));
  const auto got = fft(x);
  const auto ref = reference_fft(x, false);
  bool any_nonfinite = false;
  bool nan_where_ref_inf = false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool finite = std::isfinite(got[i].real()) && std::isfinite(got[i].imag());
    any_nonfinite = any_nonfinite || !finite;
    nan_where_ref_inf =
        nan_where_ref_inf ||
        (std::isnan(got[i].real()) && std::isinf(ref[i].real())) ||
        (std::isnan(got[i].imag()) && std::isinf(ref[i].imag()));
  }
  EXPECT_TRUE(any_nonfinite);
  EXPECT_TRUE(nan_where_ref_inf);
}

// ---- overlap-save ---------------------------------------------------------

TEST(OverlapSaveTest, StreamingMatchesDirectFir) {
  // y[i] = sum_k h[k] x[i-k] with zero history before the stream starts.
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> h(16);
  for (auto& v : h) v = d(rng);

  OverlapSave os({h}, 64);
  const std::size_t blk = os.block_size();
  ASSERT_EQ(blk, 64u - 16u + 1u);

  std::vector<double> x(blk * 4);
  for (auto& v : x) v = d(rng);
  // The stream behind k-1 zeros: block b's window starts at item b * blk.
  std::vector<double> padded(h.size() - 1, 0.0);
  padded.insert(padded.end(), x.begin(), x.end());

  std::vector<double> got(x.size());
  for (std::size_t b = 0; b < 4; ++b) {
    os.run(padded.data() + b * blk, got.data() + b * blk);
  }

  for (std::size_t i = 0; i < got.size(); ++i) {
    double want = 0.0;
    for (std::size_t k = 0; k < h.size(); ++k) {
      if (i >= k) want += h[k] * x[i - k];
    }
    ASSERT_NEAR(got[i], want, 1e-9) << "at sample " << i;
  }
}

TEST(OverlapSaveTest, PrimedHistoryShiftsAlignment) {
  std::vector<double> h{1.0, 2.0, 3.0};  // y[i] = x[i] + 2x[i-1] + 3x[i-2]
  OverlapSave os({h}, 8);
  // x[-2] = 10, x[-1] = 20, then a block of ones.
  std::vector<double> window{10.0, 20.0};
  window.resize(2 + os.block_size(), 1.0);
  std::vector<double> out(os.block_size());
  os.run(window.data(), out.data());
  // y[0] = 1 + 2*20 + 3*10 = 71; y[1] = 1 + 2*1 + 3*20 = 63; y[2] = 6.
  EXPECT_NEAR(out[0], 71.0, 1e-12);
  EXPECT_NEAR(out[1], 63.0, 1e-12);
  EXPECT_NEAR(out[2], 6.0, 1e-12);
}

// A block is the reference transform of the window times the reference
// transform of the zero-padded taps, inverted: bit for bit, over a stream of
// consecutive blocks read through a wrapping mask.
TEST(OverlapSaveTest, BlocksBitEqualToReferenceTransforms) {
  std::mt19937 rng(64);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  const std::size_t n = 512;
  std::vector<double> h(64);
  for (auto& v : h) v = d(rng);
  std::vector<cplx> hf(n);
  for (std::size_t i = 0; i < h.size(); ++i) hf[i] = cplx(h[i], 0.0);
  hf = reference_fft(hf, false);

  OverlapSave os({h}, n);
  const std::size_t blk = os.block_size();
  std::vector<double> ring(1024);  // the stream, wrapping every 1024 items
  for (auto& v : ring) v = special_value(rng);
  std::vector<double> got(blk);
  for (std::size_t b = 0; b < 40; ++b) {
    const std::size_t first = b * blk;
    os.run(ring.data(), first, ring.size() - 1, got.data());
    std::vector<cplx> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = cplx(ring[(first + i) & (ring.size() - 1)], 0.0);
    }
    x = reference_fft(x, false);
    for (std::size_t i = 0; i < n; ++i) x[i] *= hf[i];
    x = reference_fft(x, true);
    for (std::size_t j = 0; j < blk; ++j) {
      const double want = x[h.size() - 1 + j].real();
      ASSERT_EQ(std::memcmp(&got[j], &want, sizeof want), 0)
          << "block " << b << " output " << j;
    }
    for (std::size_t i = 0; i < blk; ++i) {
      ring[(first + n + i) & (ring.size() - 1)] = special_value(rng);
    }
  }
}

// Several responses share one forward transform; each equals its own
// single-response engine bit for bit.
TEST(OverlapSaveTest, ResponsesShareTheForwardTransform) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<std::vector<double>> taps(3, std::vector<double>(20));
  for (auto& row : taps) {
    for (auto& v : row) v = d(rng);
  }
  OverlapSave all(taps, 64);
  std::vector<double> window(64);
  for (auto& v : window) v = d(rng);
  std::vector<double> got(3 * all.block_size());
  all.run(window.data(), got.data());
  for (std::size_t o = 0; o < taps.size(); ++o) {
    OverlapSave one({taps[o]}, 64);
    std::vector<double> want(one.block_size());
    one.run(window.data(), want.data());
    EXPECT_EQ(std::memcmp(got.data() + o * all.block_size(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "response " << o;
  }
}

TEST(OverlapSaveTest, BadSizesThrow) {
  EXPECT_THROW(OverlapSave({{1.0}}, 12), std::invalid_argument);
  EXPECT_THROW(OverlapSave({std::vector<double>(65, 1.0)}, 64), std::invalid_argument);
  EXPECT_THROW(OverlapSave({}, 8), std::invalid_argument);
  EXPECT_THROW(OverlapSave({{1.0, 2.0}, {1.0}}, 8), std::invalid_argument);
}

TEST(FftCost, GrowsAsNLogN) {
  EXPECT_DOUBLE_EQ(fft_cost_flops(1), 0.0);
  EXPECT_DOUBLE_EQ(fft_cost_flops(8), 5.0 * 8 * 3);
  EXPECT_DOUBLE_EQ(fft_cost_flops(1024), 5.0 * 1024 * 10);
}

}  // namespace
}  // namespace sit::fft
