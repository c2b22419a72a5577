// Microbenchmarks of the FFT substrate (google-benchmark): the transform
// itself, the overlap-save convolution engine, one firing of a frequency
// filter, and the naive DFT baseline that motivates frequency translation.

#include <benchmark/benchmark.h>

#include <random>

#include "fft/fft.h"
#include "linear/frequency.h"

namespace {

std::vector<sit::fft::cplx> random_signal(std::size_t n) {
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<sit::fft::cplx> x(n);
  for (auto& v : x) v = sit::fft::cplx(d(rng), d(rng));
  return x;
}

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sit::fft::Plan plan(n);
  const auto x = random_signal(n);
  auto y = x;
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), y.begin());
    plan.forward(y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->RangeMultiplier(4)->Range(64, 16384);

void BM_NaiveDft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_signal(n);
  for (auto _ : state) {
    auto y = sit::fft::dft_naive(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_NaiveDft)->Range(64, 512);

void BM_OverlapSave(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  std::vector<double> h(taps, 0.01);
  const std::size_t fft_size = sit::fft::next_pow2(taps * 4);
  sit::fft::OverlapSave os({h}, fft_size);
  const std::vector<double> window(fft_size, 1.0);
  std::vector<double> y(os.block_size());
  for (auto _ : state) {
    os.run(window.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(os.block_size()));
}
BENCHMARK(BM_OverlapSave)->RangeMultiplier(4)->Range(16, 1024);

// A flat tape that replays one window: ring_view reports flat memory with
// an all-ones mask, and pops rewind, so every firing reads the same items.
class ReplayTape final : public sit::ir::InTape {
 public:
  explicit ReplayTape(std::vector<double> items) : items_(std::move(items)) {}
  double peek_item(int offset) override {
    return items_[static_cast<std::size_t>(offset)];
  }
  double pop_item() override { return items_[0]; }
  void pop_many(int /*n*/) override {}
  bool ring_view(std::size_t n, sit::ir::RingView* v) override {
    if (n > items_.size()) return false;
    *v = {items_.data(), 0, ~std::size_t{0}};
    return true;
  }

 private:
  std::vector<double> items_;
};

class SumTape final : public sit::ir::OutTape {
 public:
  void push_item(double v) override { sum += v; }
  double sum{0.0};
};

// One firing of a 64-tap FIR translated to a 512-point frequency filter
// (ChannelVocoder's shape): NativeFilter::work, window read, one forward
// and one inverse transform, outputs pushed.
void BM_FrequencyFiring(benchmark::State& state) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  sit::linear::LinearRep rep;
  rep.pop = 1;
  rep.peek = 64;
  rep.push = 1;
  rep.A = sit::linear::Matrix(1, 64);
  for (std::size_t i = 0; i < 64; ++i) rep.A.at(0, i) = d(rng);
  rep.b = {0.0};
  const auto node = sit::linear::make_frequency_filter(rep, "fir", 512);
  const sit::ir::NativeFilter& nf = node->native;
  std::vector<double> window(static_cast<std::size_t>(nf.peek));
  for (auto& v : window) v = d(rng);
  ReplayTape in(std::move(window));
  SumTape out;
  auto st = nf.make_state();
  for (auto _ : state) {
    nf.work(st.get(), in, out);
    benchmark::DoNotOptimize(out.sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * nf.pop);
}
BENCHMARK(BM_FrequencyFiring)->Unit(benchmark::kMicrosecond);

void BM_DirectFir(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  std::vector<double> h(taps, 0.01);
  std::vector<double> x(4096, 1.0);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i + taps <= x.size(); ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k < taps; ++k) s += h[k] * x[i + k];
      acc += s;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_DirectFir)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace

BENCHMARK_MAIN();
