#pragma once
// FFT substrate.
//
// The paper's frequency translation needs a fast transform; the original
// implementation linked FFTW.  We provide our own: an iterative radix-2
// decimation-in-time FFT over a Plan (one size's bit-reversal table and
// twiddles), plus the overlap-save block convolution that the
// frequency-domain filter executes.  A naive O(N^2) DFT is included for
// verification.
//
// Every complex multiply outside dft_naive is written in real arithmetic in
// the operation order of GCC's inline complex multiply, (ac - bd, ad + bc).
// On finite data that is bit-equal to the std::complex textbook loop.  Where
// an intermediate overflows to +-inf, std::complex's C99 Annex G recovery
// (__muldc3, taken when both parts come out NaN) is not applied, so such an
// output may read NaN where std::complex reads inf.  The recovery path costs
// the butterfly most of its time.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace sit::fft {

using cplx = std::complex<double>;

// The tables of one transform size, immutable once built.  The twiddles are
// w[i] = (cos, sin)(-2 pi i / n), packed per stage: the stage whose
// butterflies span 2h points reads w[j * n / 2h] for j < h at [h - 1, 2h - 1).
// The inverse uses their conjugates.
class Plan {
 public:
  // n must be a power of two.
  explicit Plan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  // In-place transforms of a[0, size()); inverse() scales by 1/size().
  void forward(cplx* a) const;
  void inverse(cplx* a) const;

 private:
  void butterflies(cplx* a, double sign) const;

  std::size_t n_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;  // bit reversal
  std::vector<cplx> w_;
};

// In-place FFT / inverse FFT.  n must be a power of two.  Builds a Plan per
// call; a caller that transforms one size repeatedly keeps a Plan instead.
void fft_inplace(std::vector<cplx>& a, bool inverse);

// Convenience copies.
std::vector<cplx> fft(const std::vector<cplx>& a);
std::vector<cplx> ifft(const std::vector<cplx>& a);

// Naive DFT for verification (O(n^2), any n).
std::vector<cplx> dft_naive(const std::vector<cplx>& a);

// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

// Full linear convolution of two real signals (sizes add - 1), via FFT.
std::vector<double> convolve(const std::vector<double>& x,
                             const std::vector<double>& h);

// Number of real-arithmetic operations one size-n complex FFT costs in our
// machine model (used by the linear cost model to decide when frequency
// translation wins).  ~5 n log2 n for radix-2.
double fft_cost_flops(std::size_t n);

// Overlap-save block convolution with one or more k-tap responses over the
// same input: y_o[j] = sum_t h_o[t] * x[j - t].  Each call takes the whole
// window of fft_size() items -- the k-1 items before the block, then the
// block_size() = fft_size() - k + 1 new ones -- runs one forward transform,
// and one pointwise multiply and inverse transform per response.  The plan
// and the responses are shared by copies; the scratch is per copy, so a
// copy may run on another thread.
class OverlapSave {
 public:
  // Every row of `taps` has the same length k, 0 < k <= fft_size; fft_size
  // must be a power of two.
  OverlapSave(const std::vector<std::vector<double>>& taps,
              std::size_t fft_size);

  [[nodiscard]] std::size_t block_size() const { return block_; }
  [[nodiscard]] std::size_t fft_size() const { return n_; }
  [[nodiscard]] std::size_t taps() const { return k_; }
  [[nodiscard]] std::size_t outputs() const { return outputs_; }

  // One block.  Window item i is buf[(first + i) & mask] (flat memory: an
  // all-ones mask).  Writes response o's block_size() outputs to
  // out[o * block_size() + j], where output j ends at window item k-1+j.
  void run(const double* buf, std::size_t first, std::size_t mask,
           double* out);
  void run(const double* window, double* out) {
    run(window, 0, ~std::size_t{0}, out);
  }

 private:
  std::size_t n_;        // FFT size
  std::size_t k_;        // taps
  std::size_t block_;    // n - k + 1
  std::size_t outputs_;  // responses
  std::shared_ptr<const Plan> plan_;
  std::shared_ptr<const std::vector<cplx>> h_;  // response o at [o*n, o*n+n)
  std::vector<cplx> x_, y_;  // the window's spectrum, one product
};

}  // namespace sit::fft
