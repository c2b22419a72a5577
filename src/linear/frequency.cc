#include "linear/frequency.h"

#include <memory>
#include <stdexcept>

#include "fft/fft.h"

namespace sit::linear {

namespace {

// Per-instance state: one overlap-save engine carrying every output slot's
// response, and the buffers one firing fills.  The engine reads its history
// from the peek window on every firing, so no information crosses firings --
// the filter is semantically stateless.  Clones share the plan and the
// responses and own their scratch.
class FreqState final : public ir::NativeState {
 public:
  FreqState(const LinearRep& rep, std::size_t fft_size)
      : os(taps_of(rep), fft_size), y(os.outputs() * os.block_size()) {}

  std::unique_ptr<ir::NativeState> clone() const override {
    return std::make_unique<FreqState>(*this);
  }

  fft::OverlapSave os;
  std::vector<double> window;  // the window, when the tape has no ring_view
  std::vector<double> y;       // slot o's block at [o * block, (o+1) * block)

 private:
  // Taps: h[t] = A[o][k-1-t] so that overlap-save's causal convolution
  //   sum_t h[t] x[j-t]  ==  sum_i A[o][i] W[j-k+1+i].
  static std::vector<std::vector<double>> taps_of(const LinearRep& rep) {
    const auto k = static_cast<std::size_t>(rep.peek);
    std::vector<std::vector<double>> taps(static_cast<std::size_t>(rep.push),
                                          std::vector<double>(k));
    for (std::size_t o = 0; o < taps.size(); ++o) {
      for (std::size_t t = 0; t < k; ++t) taps[o][t] = rep.A.at(o, k - 1 - t);
    }
    return taps;
  }
};

}  // namespace

bool frequency_applicable(const LinearRep& rep) {
  return rep.pop == 1 && rep.peek >= 2 && rep.push >= 1;
}

double frequency_cost_per_firing(const LinearRep& rep, std::size_t fft_size) {
  const std::size_t block = fft_size - static_cast<std::size_t>(rep.peek) + 1;
  // Each output slot runs one overlap-save block per `block` firings; the
  // history re-prime and the constant add are per firing.
  double per_block = 0.0;
  for (int o = 0; o < rep.push; ++o) {
    per_block += 2.0 * fft::fft_cost_flops(fft_size) + 6.0 * static_cast<double>(fft_size);
  }
  const double adds_per_firing = static_cast<double>(rep.push);  // + b[o]
  return per_block / static_cast<double>(block) + adds_per_firing;
}

std::size_t best_fft_size(const LinearRep& rep) {
  if (!frequency_applicable(rep)) return 0;
  const double direct = rep.cost_flops_per_firing();
  double best_cost = direct;
  std::size_t best = 0;
  const std::size_t base = fft::next_pow2(static_cast<std::size_t>(rep.peek) + 1);
  for (std::size_t n = base; n <= base * 32; n <<= 1) {
    const double c = frequency_cost_per_firing(rep, n);
    if (c < best_cost) {
      best_cost = c;
      best = n;
    }
  }
  return best;
}

ir::NodeP make_frequency_filter(const LinearRep& rep, const std::string& name,
                                std::size_t fft_size) {
  if (!frequency_applicable(rep)) {
    throw std::invalid_argument("frequency translation requires pop == 1");
  }
  if (fft_size == 0) fft_size = best_fft_size(rep);
  if (fft_size == 0) {
    // Caller forced translation; pick a workable size anyway.
    fft_size = fft::next_pow2(static_cast<std::size_t>(rep.peek) * 4);
  }
  if (fft_size <= static_cast<std::size_t>(rep.peek)) {
    throw std::invalid_argument("fft size must exceed the filter window");
  }
  const int k = rep.peek;
  const int block = static_cast<int>(fft_size) - k + 1;
  const int push = rep.push;
  const std::vector<double> b = rep.b;

  ir::NativeFilter nf;
  nf.name = name;
  nf.peek = block + k - 1;
  nf.pop = block;
  nf.push = block * push;
  nf.stateful = false;
  nf.cost_flops = frequency_cost_per_firing(rep, fft_size) * block;
  nf.cost_ops = nf.cost_flops + 2.0 * static_cast<double>(nf.pop + nf.push);
  nf.make_state = [rep, fft_size]() -> std::unique_ptr<ir::NativeState> {
    return std::make_unique<FreqState>(rep, fft_size);
  };
  nf.work = [block, push, b](ir::NativeState* state, ir::InTape& in,
                             ir::OutTape& out) {
    auto* fs = dynamic_cast<FreqState*>(state);
    if (fs == nullptr) throw std::logic_error("frequency filter state mismatch");

    // Window = [x_0 .. x_{block+k-2}]; firing j (j < block) uses x_j..x_{j+k-1}.
    const std::size_t n = fs->os.fft_size();
    ir::RingView w;
    if (!in.ring_view(n, &w)) {
      fs->window.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        fs->window[i] = in.peek_item(static_cast<int>(i));
      }
      w = {fs->window.data(), 0, ~std::size_t{0}};
    }
    fs->os.run(w.buf, w.head, w.mask, fs->y.data());
    for (int j = 0; j < block; ++j) {
      for (int o = 0; o < push; ++o) {
        out.push_item(fs->y[static_cast<std::size_t>(o * block + j)] +
                      b[static_cast<std::size_t>(o)]);
      }
    }
    in.pop_many(block);
  };
  return ir::make_native(std::move(nf));
}

}  // namespace sit::linear
