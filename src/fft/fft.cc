#include "fft/fft.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sit::fft {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// a * b in GCC's inline order, without the Annex G recovery (fft.h).
inline cplx mul(const cplx& a, const cplx& b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

}  // namespace

Plan::Plan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("FFT size must be a power of two");
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    }
    if (i < r) swaps_.emplace_back(i, r);
  }
  std::vector<cplx> w(n / 2);
  for (std::size_t i = 0; i < n / 2; ++i) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(i) /
                       static_cast<double>(n);
    w[i] = cplx(std::cos(ang), std::sin(ang));
  }
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t stride = n / (2 * half);
    for (std::size_t j = 0; j < half; ++j) w_.push_back(w[j * stride]);
  }
}

// `sign` is 1 (forward) or -1 (inverse: the conjugate twiddles); scaling the
// imaginary part by it is exact.
void Plan::butterflies(cplx* a, double sign) const {
  for (const auto& [i, r] : swaps_) std::swap(a[i], a[r]);
  for (std::size_t half = 1; half < n_; half <<= 1) {
    const cplx* tw = w_.data() + (half - 1);
    for (std::size_t base = 0; base < n_; base += 2 * half) {
      cplx* lo = a + base;
      cplx* hi = lo + half;
      for (std::size_t j = 0; j < half; ++j) {
        const cplx u = lo[j];
        const cplx v = mul(hi[j], cplx(tw[j].real(), sign * tw[j].imag()));
        lo[j] = u + v;
        hi[j] = u - v;
      }
    }
  }
}

void Plan::forward(cplx* a) const { butterflies(a, 1.0); }

void Plan::inverse(cplx* a) const {
  butterflies(a, -1.0);
  const double inv = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) a[i] *= inv;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<cplx>& a, bool inverse) {
  if (a.size() <= 1) return;
  const Plan plan(a.size());
  if (inverse) {
    plan.inverse(a.data());
  } else {
    plan.forward(a.data());
  }
}

std::vector<cplx> fft(const std::vector<cplx>& a) {
  auto b = a;
  fft_inplace(b, false);
  return b;
}

std::vector<cplx> ifft(const std::vector<cplx>& a) {
  auto b = a;
  fft_inplace(b, true);
  return b;
}

std::vector<cplx> dft_naive(const std::vector<cplx>& a) {
  const std::size_t n = a.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * j) /
                         static_cast<double>(n);
      acc += a[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

double fft_cost_flops(std::size_t n) {
  if (n <= 1) return 0.0;
  double log2n = 0.0;
  std::size_t p = n;
  while (p > 1) {
    p >>= 1;
    log2n += 1.0;
  }
  return 5.0 * static_cast<double>(n) * log2n;
}

std::vector<double> convolve(const std::vector<double>& x,
                             const std::vector<double>& h) {
  if (x.empty() || h.empty()) return {};
  const std::size_t out_len = x.size() + h.size() - 1;
  const Plan plan(next_pow2(out_len));
  std::vector<cplx> fx(plan.size()), fh(plan.size());
  for (std::size_t i = 0; i < x.size(); ++i) fx[i] = cplx(x[i], 0.0);
  for (std::size_t i = 0; i < h.size(); ++i) fh[i] = cplx(h[i], 0.0);
  plan.forward(fx.data());
  plan.forward(fh.data());
  for (std::size_t i = 0; i < plan.size(); ++i) fx[i] = mul(fx[i], fh[i]);
  plan.inverse(fx.data());
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = fx[i].real();
  return out;
}

OverlapSave::OverlapSave(const std::vector<std::vector<double>>& taps,
                         std::size_t fft_size)
    : n_(fft_size), k_(taps.empty() ? 0 : taps[0].size()), outputs_(taps.size()) {
  if (!is_pow2(n_)) throw std::invalid_argument("overlap-save FFT size must be pow2");
  if (k_ == 0 || k_ > n_) throw std::invalid_argument("overlap-save needs 0 < taps <= fft size");
  block_ = n_ - k_ + 1;
  auto plan = std::make_shared<const Plan>(n_);
  auto h = std::make_shared<std::vector<cplx>>(outputs_ * n_);
  for (std::size_t o = 0; o < outputs_; ++o) {
    if (taps[o].size() != k_) {
      throw std::invalid_argument("overlap-save responses must have equal taps");
    }
    cplx* row = h->data() + o * n_;
    for (std::size_t i = 0; i < k_; ++i) row[i] = cplx(taps[o][i], 0.0);
    plan->forward(row);
  }
  plan_ = std::move(plan);
  h_ = std::move(h);
  x_.resize(n_);
  y_.resize(n_);
}

void OverlapSave::run(const double* buf, std::size_t first, std::size_t mask,
                      double* out) {
  for (std::size_t i = 0; i < n_; ++i) x_[i] = cplx(buf[(first + i) & mask], 0.0);
  plan_->forward(x_.data());
  for (std::size_t o = 0; o < outputs_; ++o) {
    const cplx* h = h_->data() + o * n_;
    for (std::size_t i = 0; i < n_; ++i) y_[i] = mul(x_[i], h[i]);
    plan_->inverse(y_.data());
    // Outputs k-1 .. n-1 of the circular convolution are the valid linear
    // ones.
    double* dst = out + o * block_;
    for (std::size_t j = 0; j < block_; ++j) dst[j] = y_[k_ - 1 + j].real();
  }
}

}  // namespace sit::fft
