// Tests for the linear module: extraction, representation round-trips,
// expansion, pipeline and split-join combination, frequency translation, and
// optimization selection.  The combination rules are verified by *property
// tests*: a collapsed filter must compute exactly the same output stream as
// the subgraph it replaces, on random programs and random inputs.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <thread>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "linear/combine.h"
#include "linear/cost.h"
#include "linear/extract.h"
#include "linear/frequency.h"
#include "linear/linear_rep.h"
#include "linear/optimize.h"
#include "opt/compile.h"
#include "runtime/channel.h"
#include "runtime/spsc.h"
#include "sched/exec.h"

namespace sit::linear {
namespace {

using namespace sit::ir::dsl;
using namespace sit::ir;

// ---- helpers ----------------------------------------------------------------

std::vector<double> run_graph(const NodeP& root, int items_out,
                              unsigned input_seed = 99) {
  sched::Executor ex(ir::clone(root));
  std::mt19937 rng(input_seed);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  std::vector<double> input;
  ex.set_input_generator([&input, &rng, &d](std::int64_t i) {
    while (static_cast<std::int64_t>(input.size()) <= i) input.push_back(d(rng));
    return input[static_cast<std::size_t>(i)];
  });
  std::vector<double> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < items_out && ++guard < 10000) {
    const auto got = ex.run_steady(1);
    out.insert(out.end(), got.begin(), got.end());
  }
  out.resize(static_cast<std::size_t>(items_out));
  return out;
}

void expect_same_stream(const NodeP& a, const NodeP& b, int items,
                        double tol = 1e-9) {
  const auto xa = run_graph(a, items);
  const auto xb = run_graph(b, items);
  ASSERT_EQ(xa.size(), xb.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    ASSERT_NEAR(xa[i], xb[i], tol) << "streams diverge at item " << i;
  }
}

LinearRep random_rep(std::mt19937& rng, int max_rate = 3, int max_extra = 3) {
  std::uniform_int_distribution<int> rate(1, max_rate);
  std::uniform_int_distribution<int> extra(0, max_extra);
  std::uniform_real_distribution<double> coeff(-1.5, 1.5);
  std::uniform_int_distribution<int> sparse(0, 3);
  LinearRep r;
  r.pop = rate(rng);
  r.peek = r.pop + extra(rng);
  r.push = rate(rng);
  r.A = Matrix(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
  r.b.assign(static_cast<std::size_t>(r.push), 0.0);
  for (int o = 0; o < r.push; ++o) {
    for (int i = 0; i < r.peek; ++i) {
      if (sparse(rng) != 0) {  // 75% dense
        r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) = coeff(rng);
      }
    }
    if (sparse(rng) == 0) r.b[static_cast<std::size_t>(o)] = coeff(rng);
  }
  return r;
}

// ---- extraction -------------------------------------------------------------

TEST(Extract, FirFilterYieldsCoefficientMatrix) {
  // 4-tap FIR with weights from init: y = sum_i h[i] * peek(i).
  auto f = filter("fir4")
               .rates(4, 1, 1)
               .array("h", 4)
               .init(seq({for_("i", 0, 4,
                               set_at("h", v("i"), to_float(v("i")) + c(1.0)))}))
               .work(seq({let("s", c(0.0)),
                          for_("i", 0, 4,
                               let("s", v("s") + peek_(v("i")) * at("h", v("i")))),
                          push_(v("s")), discard(1)}))
               .build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value()) << res.reason;
  const LinearRep& r = *res.rep;
  EXPECT_EQ(r.peek, 4);
  EXPECT_EQ(r.pop, 1);
  EXPECT_EQ(r.push, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.A.at(0, static_cast<std::size_t>(i)), i + 1.0);
  }
  EXPECT_DOUBLE_EQ(r.b[0], 0.0);
}

TEST(Extract, AffineConstantGoesToB) {
  auto f = filter("aff").rates(1, 1, 1).work(seq({push_(pop_() * c(3.0) + c(2.5))})).build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(res.rep->b[0], 2.5);
}

TEST(Extract, SubtractionAndNegation) {
  auto f = filter("sub").rates(2, 2, 1).work(seq({push_(-(pop_() - pop_()))})).build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 1), 1.0);
}

TEST(Extract, RejectsProductOfInputs) {
  auto f = filter("sq").rates(1, 1, 1).work(seq({push_(peek_(0) * peek_(0)), discard(1)})).build();
  const auto res = extract(f);
  EXPECT_FALSE(res.rep.has_value());
  EXPECT_NE(res.reason.find("product"), std::string::npos);
}

TEST(Extract, RejectsStateWrites) {
  auto f = filter("acc")
               .rates(1, 1, 1)
               .scalar("s", ir::Value(0.0))
               .work(seq({let("s", v("s") + pop_()), push_(v("s"))}))
               .build();
  const auto res = extract(f);
  EXPECT_FALSE(res.rep.has_value());
  EXPECT_NE(res.reason.find("state"), std::string::npos);
  EXPECT_TRUE(writes_state(f));
}

TEST(Extract, RejectsDataDependentBranch) {
  auto f = filter("clip")
               .rates(1, 1, 1)
               .work(seq({let("x", pop_()),
                          if_(v("x") > c(0.0), push_(v("x")), push_(c(0.0)))}))
               .build();
  EXPECT_FALSE(extract(f).rep.has_value());
}

TEST(Extract, RejectsTranscendentalOfInput) {
  auto f = filter("sinf").rates(1, 1, 1).work(seq({push_(sin_(pop_()))})).build();
  EXPECT_FALSE(extract(f).rep.has_value());
}

TEST(Extract, DivisionByConstantIsLinear) {
  auto f = filter("scale").rates(1, 1, 1).work(seq({push_(pop_() / c(4.0))})).build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), 0.25);
}

TEST(Extract, ConstantConditionalIsFolded) {
  auto f = filter("cc")
               .rates(1, 1, 1)
               .work(seq({if_(E(1) == E(1), push_(pop_() * c(2.0)),
                              push_(pop_() * c(9.0)))}))
               .build();
  const auto res = extract(f);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), 2.0);
}

TEST(Extract, IdentityFilter) {
  const auto res = extract(dsl::identity("id")->filter);
  ASSERT_TRUE(res.rep.has_value());
  EXPECT_DOUBLE_EQ(res.rep->A.at(0, 0), 1.0);
}

// ---- representation round trip ----------------------------------------------

TEST(LinearRepTest, ToFilterRoundTripsThroughExtraction) {
  std::mt19937 rng(21);
  for (int trial = 0; trial < 25; ++trial) {
    const LinearRep r = random_rep(rng);
    const auto back = extract(to_filter(r, "rt"));
    ASSERT_TRUE(back.rep.has_value()) << back.reason;
    // trim_tail is not applied by to_filter, so peek can only shrink via
    // extraction if trailing columns were zero; compare entrywise on the
    // common window.
    EXPECT_EQ(back.rep->pop, r.pop);
    EXPECT_EQ(back.rep->push, r.push);
    for (int o = 0; o < r.push; ++o) {
      for (int i = 0; i < r.peek; ++i) {
        const double want = r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i));
        const double got = i < back.rep->peek
                               ? back.rep->A.at(static_cast<std::size_t>(o),
                                                static_cast<std::size_t>(i))
                               : 0.0;
        EXPECT_DOUBLE_EQ(got, want);
      }
      EXPECT_DOUBLE_EQ(back.rep->b[static_cast<std::size_t>(o)],
                       r.b[static_cast<std::size_t>(o)]);
    }
  }
}

TEST(LinearRepTest, ApplyMatchesFilterExecution) {
  std::mt19937 rng(4);
  const LinearRep r = random_rep(rng);
  auto node = make_filter(to_filter(r, "x"));
  const auto out = run_graph(make_pipeline("p", {node}), r.push * 3);
  // First firing consumes window = first peek inputs of the same generator.
  std::mt19937 rng2(99);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  std::vector<double> input;
  for (int i = 0; i < r.peek + 3 * r.pop; ++i) input.push_back(d(rng2));
  std::vector<double> window(input.begin(), input.begin() + r.peek);
  const auto want = sit::linear::apply(r, window);
  for (int o = 0; o < r.push; ++o) {
    EXPECT_NEAR(out[static_cast<std::size_t>(o)], want[static_cast<std::size_t>(o)], 1e-9);
  }
}

// ---- expansion ---------------------------------------------------------------

TEST(Expand, RatesAndEquivalence) {
  std::mt19937 rng(7);
  const LinearRep r = random_rep(rng);
  const LinearRep e = expand(r, 3);
  EXPECT_EQ(e.pop, 3 * r.pop);
  EXPECT_EQ(e.push, 3 * r.push);
  EXPECT_EQ(e.peek, r.peek + 2 * r.pop);
  expect_same_stream(make_filter(to_filter(r, "orig")),
                     make_filter(to_filter(e, "expanded")), 3 * r.push * 4);
}

TEST(Expand, FactorOneIsIdentity) {
  std::mt19937 rng(8);
  const LinearRep r = random_rep(rng);
  EXPECT_TRUE(expand(r, 1) == r);
  EXPECT_THROW(expand(r, 0), std::invalid_argument);
}

// ---- pipeline combination (property test) ------------------------------------

struct PipeCase {
  unsigned seed;
};

class CombinePipelineP : public ::testing::TestWithParam<unsigned> {};

TEST_P(CombinePipelineP, CollapsedFilterMatchesPipeline) {
  std::mt19937 rng(GetParam());
  const LinearRep a = random_rep(rng);
  const LinearRep b = random_rep(rng);
  const LinearRep c = combine_pipeline(a, b);

  auto orig = make_pipeline("orig", {make_filter(to_filter(a, "A")),
                                     make_filter(to_filter(b, "B"))});
  auto collapsed = make_filter(to_filter(c, "C"));
  expect_same_stream(orig, collapsed, 3 * c.push + 5);
}

INSTANTIATE_TEST_SUITE_P(RandomPipelines, CombinePipelineP,
                         ::testing::Range(100u, 140u));

TEST(CombinePipeline, ThreeStageChain) {
  std::mt19937 rng(77);
  const LinearRep a = random_rep(rng);
  const LinearRep b = random_rep(rng);
  const LinearRep c = random_rep(rng);
  const LinearRep abc = combine_pipeline({a, b, c});
  auto orig = make_pipeline("orig", {make_filter(to_filter(a, "A")),
                                     make_filter(to_filter(b, "B")),
                                     make_filter(to_filter(c, "C"))});
  expect_same_stream(orig, make_filter(to_filter(abc, "ABC")), 3 * abc.push + 2);
}

TEST(CombinePipeline, TwoFirsCollapseToOneFir) {
  // FIR(h1) ; FIR(h2) == FIR(h1 conv h2): rates collapse to peek k1+k2-1.
  auto fir = [](const std::vector<double>& h) {
    LinearRep r;
    r.peek = static_cast<int>(h.size());
    r.pop = 1;
    r.push = 1;
    r.A = Matrix(1, h.size());
    for (std::size_t i = 0; i < h.size(); ++i) r.A.at(0, i) = h[i];
    r.b = {0.0};
    return r;
  };
  const LinearRep c = combine_pipeline(fir({1.0, 2.0}), fir({1.0, -1.0}));
  EXPECT_EQ(c.pop, 1);
  EXPECT_EQ(c.push, 1);
  EXPECT_EQ(c.peek, 3);
  // y[t] = (x[t]+2x[t+1]) composed: B output = A_out[t] - A_out[t+1] with
  // window-forward convention: coefficients {1*1, 2-1? ...} -- verified by
  // stream equality, and the tap count is what the paper's FIR fusion gives.
  expect_same_stream(
      make_pipeline("p", {make_filter(to_filter(fir({1.0, 2.0}), "f1")),
                          make_filter(to_filter(fir({1.0, -1.0}), "f2"))}),
      make_filter(to_filter(c, "c")), 12);
}

TEST(CombinePipeline, DegenerateRatesThrow) {
  LinearRep src;  // push-only
  src.peek = src.pop = 0;
  src.push = 1;
  src.A = Matrix(1, 0);
  src.b = {1.0};
  std::mt19937 rng(3);
  const LinearRep b = random_rep(rng);
  EXPECT_THROW(combine_pipeline(b, src), std::invalid_argument);
}

// ---- splitjoin combination (property test) -----------------------------------

class CombineSplitJoinDupP : public ::testing::TestWithParam<unsigned> {};

TEST_P(CombineSplitJoinDupP, DuplicateSplitterCollapse) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nch(2, 4);
  const int n = nch(rng);
  std::vector<LinearRep> reps;
  std::vector<NodeP> children;
  std::vector<int> jw;
  // Duplicate splitter: all children must pop the same amount for a simple
  // instance; give them a common pop and independent peek/push.
  std::uniform_int_distribution<int> rate(1, 3);
  const int pop = rate(rng);
  for (int i = 0; i < n; ++i) {
    LinearRep r = random_rep(rng);
    r.pop = pop;
    if (r.peek < pop) r.peek = pop;
    // Rebuild matrix for new rates.
    Matrix m(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
    std::uniform_real_distribution<double> coeff(-1.0, 1.0);
    for (int o = 0; o < r.push; ++o) {
      for (int k = 0; k < r.peek; ++k) {
        m.at(static_cast<std::size_t>(o), static_cast<std::size_t>(k)) = coeff(rng);
      }
    }
    r.A = std::move(m);
    reps.push_back(r);
    children.push_back(make_filter(to_filter(r, "ch" + std::to_string(i))));
    jw.push_back(r.push);  // joiner takes each child's whole firing per cycle
  }
  const LinearRep c = combine_splitjoin(duplicate_split(), reps, jw);
  auto orig = make_splitjoin("sj", duplicate_split(), roundrobin_join(jw), children);
  expect_same_stream(orig, make_filter(to_filter(c, "C")), 2 * c.push + 3);
}

INSTANTIATE_TEST_SUITE_P(RandomDupSplitJoins, CombineSplitJoinDupP,
                         ::testing::Range(200u, 220u));

class CombineSplitJoinRRP : public ::testing::TestWithParam<unsigned> {};

TEST_P(CombineSplitJoinRRP, RoundRobinSplitterCollapse) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nch(2, 3);
  std::uniform_int_distribution<int> wdist(1, 3);
  const int n = nch(rng);
  std::vector<LinearRep> reps;
  std::vector<NodeP> children;
  std::vector<int> sw, jw;
  for (int i = 0; i < n; ++i) {
    LinearRep r = random_rep(rng, /*max_rate=*/2, /*max_extra=*/2);
    reps.push_back(r);
    children.push_back(make_filter(to_filter(r, "ch" + std::to_string(i))));
    sw.push_back(r.pop * wdist(rng));  // splitter weight = multiple of pop
    jw.push_back(r.push * (sw.back() / r.pop));  // keeps joiner balanced
  }
  const LinearRep c = combine_splitjoin(roundrobin_split(sw), reps, jw);
  auto orig = make_splitjoin("sj", roundrobin_split(sw), roundrobin_join(jw),
                             children);
  expect_same_stream(orig, make_filter(to_filter(c, "C")), 2 * c.push + 3);
}

INSTANTIATE_TEST_SUITE_P(RandomRRSplitJoins, CombineSplitJoinRRP,
                         ::testing::Range(300u, 320u));

TEST(CombineSplitJoin, InconsistentRatesThrow) {
  std::mt19937 rng(31);
  LinearRep a = random_rep(rng);
  a.pop = 1;
  a.push = 1;
  a.peek = 1;
  a.A = Matrix(1, 1);
  a.A.at(0, 0) = 1.0;
  a.b = {0.0};
  LinearRep b = a;
  b.push = 2;
  b.A = Matrix(2, 1);
  b.A.at(0, 0) = 1.0;
  b.A.at(1, 0) = 1.0;
  b.b = {0.0, 0.0};
  // Duplicate split, join weights (1,1): a produces 1/input, b produces 2.
  EXPECT_THROW(combine_splitjoin(duplicate_split(), {a, b}, {1, 1}),
               std::invalid_argument);
}

// ---- frequency translation ----------------------------------------------------

class FrequencyP : public ::testing::TestWithParam<unsigned> {};

TEST_P(FrequencyP, FrequencyFilterMatchesDirect) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> taps(4, 24);
  std::uniform_int_distribution<int> pushes(1, 3);
  std::uniform_real_distribution<double> coeff(-1.0, 1.0);
  LinearRep r;
  r.pop = 1;
  r.peek = taps(rng);
  r.push = pushes(rng);
  r.A = Matrix(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
  r.b.assign(static_cast<std::size_t>(r.push), 0.0);
  for (int o = 0; o < r.push; ++o) {
    for (int i = 0; i < r.peek; ++i) {
      r.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) = coeff(rng);
    }
    r.b[static_cast<std::size_t>(o)] = coeff(rng);
  }
  ASSERT_TRUE(frequency_applicable(r));
  auto freq = make_frequency_filter(r, "freq", 64);
  expect_same_stream(make_filter(to_filter(r, "direct")), freq, 150, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomFirs, FrequencyP, ::testing::Range(400u, 415u));

TEST(Frequency, NotApplicableToDecimators) {
  std::mt19937 rng(9);
  LinearRep r = random_rep(rng);
  r.pop = 2;
  r.peek = std::max(r.peek, 2);
  EXPECT_FALSE(frequency_applicable(r));
  EXPECT_THROW(make_frequency_filter(r, "x"), std::invalid_argument);
}

TEST(Frequency, CostFavorsFftForLongFilters) {
  LinearRep longfir;
  longfir.pop = 1;
  longfir.peek = 256;
  longfir.push = 1;
  longfir.A = Matrix(1, 256);
  for (int i = 0; i < 256; ++i) longfir.A.at(0, static_cast<std::size_t>(i)) = 1.0;
  longfir.b = {0.0};
  const std::size_t n = best_fft_size(longfir);
  ASSERT_NE(n, 0u);
  EXPECT_LT(frequency_cost_per_firing(longfir, n),
            longfir.cost_flops_per_firing());

  LinearRep shortfir = longfir;
  shortfir.peek = 3;
  shortfir.A = Matrix(1, 3);
  for (int i = 0; i < 3; ++i) shortfir.A.at(0, static_cast<std::size_t>(i)) = 1.0;
  EXPECT_EQ(best_fft_size(shortfir), 0u);
}

// ---- frequency filter firings ---------------------------------------------------
//
// A frequency filter reads its whole peek window through the tape's
// ring_view when the tape has one, and item by item when it does not; a
// push > 1 filter transforms the window once for all its output slots.
// Every path must give the same bits.

// A tape without ring_view: the filter falls back to peek_item.
class PeekOnlyTape final : public ir::InTape {
 public:
  explicit PeekOnlyTape(std::vector<double> items) : items_(std::move(items)) {}
  double peek_item(int offset) override {
    return items_.at(head_ + static_cast<std::size_t>(offset));
  }
  double pop_item() override { return items_.at(head_++); }

 private:
  std::vector<double> items_;
  std::size_t head_{0};
};

class CollectTape final : public ir::OutTape {
 public:
  void push_item(double v) override { items.push_back(v); }
  std::vector<double> items;
};

LinearRep random_fir(unsigned seed, int peek, int push) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coeff(-1.0, 1.0);
  LinearRep r;
  r.pop = 1;
  r.peek = peek;
  r.push = push;
  r.A = Matrix(static_cast<std::size_t>(push), static_cast<std::size_t>(peek));
  r.b.assign(static_cast<std::size_t>(push), 0.0);
  for (std::size_t o = 0; o < r.A.rows(); ++o) {
    for (std::size_t i = 0; i < r.A.cols(); ++i) r.A.at(o, i) = coeff(rng);
    r.b[o] = coeff(rng);
  }
  return r;
}

std::vector<double> seeded_stream(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  std::vector<double> x(n);
  for (auto& v : x) v = d(rng);
  return x;
}

// `firings` firings of the frequency filter `node` from a Channel holding
// `stream`.
std::vector<double> fire_on_channel(const NodeP& node,
                                    const std::vector<double>& stream,
                                    int firings) {
  const ir::NativeFilter& nf = node->native;
  runtime::Channel in;
  for (double v : stream) in.push_item(v);
  auto st = nf.make_state();
  CollectTape out;
  for (int f = 0; f < firings; ++f) nf.work(st.get(), in, out);
  return out.items;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Frequency, EveryWindowPathGivesTheSameBits) {
  const LinearRep r = random_fir(21, 24, 2);
  const NodeP node = make_frequency_filter(r, "freq", 64);
  const ir::NativeFilter& nf = node->native;
  const int firings = 12;
  const auto stream = seeded_stream(
      static_cast<std::size_t>(firings * nf.pop + nf.peek - nf.pop), 5);

  // A Channel holding the whole stream: every window lies in one lap.
  const auto flat = fire_on_channel(node, stream, firings);
  ASSERT_EQ(flat.size(), static_cast<std::size_t>(firings * nf.push));

  // A 128-slot SpscRing refilled before each firing: windows wrap.
  runtime::SpscRing ring(128);
  auto st = nf.make_state();
  CollectTape ring_out;
  std::size_t fed = 0;
  int wrapped = 0;
  for (int f = 0; f < firings; ++f) {
    while (fed < stream.size() && ring.can_push(1)) ring.push_item(stream[fed++]);
    ir::RingView v;
    ASSERT_TRUE(ring.ring_view(static_cast<std::size_t>(nf.peek), &v));
    if ((v.head & v.mask) + static_cast<std::size_t>(nf.peek) > v.mask + 1) ++wrapped;
    nf.work(st.get(), ring, ring_out);
  }
  EXPECT_GT(wrapped, 0);

  // No ring_view: the window is copied with peek_item.
  PeekOnlyTape peek_only(stream);
  auto st2 = nf.make_state();
  CollectTape peek_out;
  for (int f = 0; f < firings; ++f) nf.work(st2.get(), peek_only, peek_out);

  EXPECT_TRUE(same_bits(flat, ring_out.items));
  EXPECT_TRUE(same_bits(flat, peek_out.items));
}

TEST(Frequency, EachSlotOfAMultiOutputFilterEqualsItsOwnRow) {
  const LinearRep r = random_fir(33, 20, 3);
  const NodeP all = make_frequency_filter(r, "all", 64);
  const int firings = 6;
  const int block = all->native.pop;
  const auto stream = seeded_stream(
      static_cast<std::size_t>(firings * block + r.peek - 1), 8);
  const auto got = fire_on_channel(all, stream, firings);
  for (int o = 0; o < r.push; ++o) {
    LinearRep row = r;
    row.push = 1;
    row.A = Matrix(1, static_cast<std::size_t>(r.peek));
    for (std::size_t i = 0; i < row.A.cols(); ++i) {
      row.A.at(0, i) = r.A.at(static_cast<std::size_t>(o), i);
    }
    row.b = {r.b[static_cast<std::size_t>(o)]};
    const auto want = fire_on_channel(make_frequency_filter(row, "row", 64),
                                      stream, firings);
    ASSERT_EQ(want.size(), static_cast<std::size_t>(firings * block));
    for (std::size_t j = 0; j < want.size(); ++j) {
      const double slot = got[j * static_cast<std::size_t>(r.push) +
                              static_cast<std::size_t>(o)];
      ASSERT_EQ(std::memcmp(&slot, &want[j], sizeof slot), 0)
          << "slot " << o << " firing " << j;
    }
  }
}

// Filters of distinct FFT sizes, built and fired on two threads at once,
// give the bits they give alone (each owns its plan; nothing is shared
// across filters).
TEST(Frequency, FiltersOfDistinctSizesFireConcurrently) {
  const LinearRep r = random_fir(44, 16, 1);
  const std::size_t sizes[2] = {64, 256};
  const auto stream = seeded_stream(4096, 13);
  std::vector<double> got[2];
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([&, t] {
        got[t] = fire_on_channel(make_frequency_filter(r, "f", sizes[t]),
                                 stream, 8);
      });
    }
    for (auto& w : workers) w.join();
  }
  for (int t = 0; t < 2; ++t) {
    EXPECT_TRUE(same_bits(got[t], fire_on_channel(make_frequency_filter(r, "f", sizes[t]),
                                                  stream, 8)))
        << "fft size " << sizes[t];
  }
}

// ---- optimization selection -----------------------------------------------------

NodeP fir_node(const std::string& name, const std::vector<double>& h) {
  std::vector<ir::Value> init;
  init.reserve(h.size());
  for (double x : h) init.emplace_back(x);
  const int n = static_cast<int>(h.size());
  return filter(name)
      .rates(n, 1, 1)
      .array_init("h", init)
      .work(seq({let("s", c(0.0)),
                 for_("i", 0, n, let("s", v("s") + peek_(v("i")) * at("h", v("i")))),
                 push_(v("s")), discard(1)}))
      .node();
}

TEST(Optimize, CollapsesPipelineOfFirs) {
  auto p = make_pipeline("p", {fir_node("f1", {1.0, 0.5, 0.25, 0.1, 0.05}),
                               fir_node("f2", {0.5, -0.5, 0.25, -0.25})});
  OptimizeStats stats;
  OptimizeOptions opts;
  opts.enable_frequency = false;
  auto q = optimize_selection(p, opts, &stats);
  EXPECT_EQ(stats.linear_filters, 2);
  EXPECT_GE(stats.combinations, 1);
  EXPECT_LE(stats.cost_after, stats.cost_before + 1e-9);
  EXPECT_EQ(count_filters(q), 1);
  expect_same_stream(p, q, 40);
}

TEST(Optimize, TranslatesLongFirToFrequency) {
  std::vector<double> h(128);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = 1.0 / (1.0 + static_cast<double>(i));
  auto p = make_pipeline("p", {fir_node("long", h)});
  OptimizeStats stats;
  auto q = optimize_selection(p, {}, &stats);
  EXPECT_EQ(stats.frequency_nodes, 1);
  EXPECT_LT(stats.cost_after, stats.cost_before);
  expect_same_stream(p, q, 200, 1e-7);
}

TEST(Optimize, LeavesNonlinearAlone) {
  auto sq = filter("sq").rates(1, 1, 1).work(seq({push_(peek_(0) * peek_(0)), discard(1)})).node();
  auto p = make_pipeline("p", {sq});
  OptimizeStats stats;
  auto q = optimize_selection(p, {}, &stats);
  EXPECT_EQ(stats.linear_filters, 0);
  EXPECT_EQ(stats.combinations, 0);
  expect_same_stream(p, q, 20);
}

TEST(Optimize, MixedPipelineCollapsesOnlyLinearRun) {
  auto sq = filter("sq").rates(1, 1, 1).work(seq({push_(peek_(0) * peek_(0)), discard(1)})).node();
  auto p = make_pipeline("p", {fir_node("f1", {1.0, 2.0, 1.0, 0.5}),
                               fir_node("f2", {0.25, 0.5, 0.25}), sq,
                               fir_node("f3", {1.0, -1.0, 0.5, -0.5}),
                               fir_node("f4", {0.5, 0.5, 0.1})});
  OptimizeStats stats;
  OptimizeOptions opts;
  opts.enable_frequency = false;
  auto q = optimize_selection(p, opts, &stats);
  EXPECT_EQ(stats.linear_filters, 4);
  // f1+f2 collapse, sq survives, f3+f4 collapse -> 3 filters.
  EXPECT_EQ(count_filters(q), 3);
  expect_same_stream(p, q, 40);
}

TEST(Cost, EstimateWorkDoesNotPinTransientAsts) {
  // The estimate is memoized per work AST, but the memo must not keep an AST
  // alive: selection builds and drops thousands of candidate filters per
  // compile.
  std::weak_ptr<const Stmt> probe;
  {
    const FilterSpec f = filter("tmp")
                             .rates(1, 1, 1)
                             .work(seq({push_(pop_() * c(3.0))}))
                             .build();
    const runtime::OpCounts first = estimate_work(f);
    EXPECT_GT(first.flops, 0);
    EXPECT_EQ(estimate_work(f).flops, first.flops);  // memo hit, same answer
    probe = f.work;
  }
  EXPECT_TRUE(probe.expired());
}

// ---- closed-form candidate costs ---------------------------------------------

// Every linear rep the selection forms over `n`, appended to `out`: each
// linear filter's, each pipeline interval's (folded left to right, as the
// interval DP folds), and each all-linear split-join's.  Returns the rep of
// `n` itself, if it has one.
std::optional<LinearRep> selection_reps(const NodeP& n,
                                        std::vector<LinearRep>& out) {
  constexpr std::size_t kMaxEntries = OptimizeOptions{}.max_matrix_entries;
  const auto small = [&](const LinearRep& r) {
    return static_cast<std::size_t>(r.peek) * static_cast<std::size_t>(r.push) <=
           kMaxEntries;
  };
  switch (n->kind) {
    case Node::Kind::Filter: {
      std::optional<LinearRep> r = extract(n->filter).rep;
      if (r) out.push_back(*r);
      return r;
    }
    case Node::Kind::Native:
      return std::nullopt;
    case Node::Kind::Pipeline: {
      std::vector<std::optional<LinearRep>> kids;
      for (const NodeP& c : n->children) kids.push_back(selection_reps(c, out));
      const std::size_t k = kids.size();
      std::optional<LinearRep> whole = k == 1 ? kids[0] : std::nullopt;
      for (std::size_t i = 0; i < k; ++i) {
        std::optional<LinearRep> acc = kids[i];
        for (std::size_t j = i + 1; j < k && acc && kids[j]; ++j) {
          try {
            acc = combine_pipeline(*acc, *kids[j]);
          } catch (const std::exception&) {
            break;
          }
          if (!small(*acc)) break;
          out.push_back(*acc);
          if (i == 0 && j == k - 1) whole = acc;
        }
      }
      return whole;
    }
    case Node::Kind::SplitJoin: {
      std::vector<LinearRep> reps;
      bool all = true;
      for (const NodeP& c : n->children) {
        std::optional<LinearRep> r = selection_reps(c, out);
        if (r) {
          reps.push_back(*r);
        } else {
          all = false;
        }
      }
      if (!all || n->split.kind == SJKind::Null ||
          n->join.kind != SJKind::RoundRobin) {
        return std::nullopt;
      }
      try {
        LinearRep r = combine_splitjoin(n->split, reps, n->join.weights);
        if (!small(r)) return std::nullopt;
        out.push_back(r);
        return r;
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    case Node::Kind::FeedbackLoop:
      for (const NodeP& c : n->children) selection_reps(c, out);
      return std::nullopt;
  }
  return std::nullopt;
}

// The reps the linear passes of -O1/-O2 visit on the 17 apps (linear-combine
// sees the const-folded graph, frequency sees linear-combine's output), then
// seeded random reps with all-zero rows, nonzero constants, peek > pop,
// single-entry rows and signed zeros.
std::vector<LinearRep> reps_to_check() {
  std::vector<LinearRep> reps;
  for (const apps::AppInfo& app : apps::all_apps()) {
    for (const char* spec : {"validate,analysis-gate,const-fold",
                             "validate,analysis-gate,const-fold,linear-combine"}) {
      opt::CompileOptions co;
      co.passes = spec;
      co.pass.verify_each = opt::VerifyMode::Off;
      selection_reps(opt::compile(app.make(), co).graph, reps);
    }
  }
  std::mt19937 rng(16);
  std::uniform_int_distribution<int> rate(0, 6);
  std::uniform_int_distribution<int> shape(0, 5);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  for (int t = 0; t < 300; ++t) {
    LinearRep r;
    r.peek = rate(rng) + rate(rng);
    r.pop = std::uniform_int_distribution<int>(0, r.peek)(rng);
    r.push = 1 + rate(rng);
    r.A = Matrix(static_cast<std::size_t>(r.push), static_cast<std::size_t>(r.peek));
    r.b.assign(static_cast<std::size_t>(r.push), 0.0);
    for (std::size_t o = 0; o < static_cast<std::size_t>(r.push); ++o) {
      const int row = shape(rng);  // 0: all zero, 1: one entry, else sparse
      for (std::size_t i = 0; i < static_cast<std::size_t>(r.peek); ++i) {
        const int cell = shape(rng);
        if (row == 0 || cell == 0) continue;
        r.A.at(o, i) = cell == 1 ? -0.0 : coeff(rng);
        if (row == 1 && r.A.at(o, i) != 0.0) break;
      }
      const int k = shape(rng);
      r.b[o] = k == 0 ? coeff(rng) : k == 1 ? -0.0 : 0.0;
    }
    reps.push_back(std::move(r));
  }
  return reps;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(LinearCost, ClosedFormMatchesInterpretedFilter) {
  const std::vector<LinearRep> reps = reps_to_check();
  ASSERT_GT(reps.size(), 400u);
  for (std::size_t n = 0; n < reps.size(); ++n) {
    const LinearRep& r = reps[n];
    const runtime::OpCounts want = estimate_work(to_filter(r, "probe"));
    const runtime::OpCounts got = r.op_counts();
    SCOPED_TRACE("rep " + std::to_string(n) + ": peek=" + std::to_string(r.peek) +
                 " pop=" + std::to_string(r.pop) + " push=" + std::to_string(r.push));
    EXPECT_EQ(got.int_ops, want.int_ops);
    EXPECT_EQ(got.flops, want.flops);
    EXPECT_EQ(got.divs, want.divs);
    EXPECT_EQ(got.trans, want.trans);
    EXPECT_EQ(got.mem, want.mem);
    EXPECT_EQ(got.channel, want.channel);
  }
}

// extract() replays the extractor's arithmetic on the coefficient rows a
// to_filter result carries instead of analyzing its work AST; that must be
// exactly what analyzing the AST returns, down to the sign of zero.
TEST(LinearCost, AsExtractedMatchesExtraction) {
  for (const LinearRep& r : reps_to_check()) {
    const ir::FilterSpec f = to_filter(r, "probe");
    ASSERT_NE(f.linear_rows(), nullptr);
    ir::FilterSpec plain = f;
    plain.linear = nullptr;
    const ExtractResult ex = extract(plain);
    ASSERT_TRUE(ex.rep.has_value()) << ex.reason;
    const LinearRep want = *ex.rep;
    const ExtractResult from_rows = extract(f);
    ASSERT_TRUE(from_rows.rep.has_value()) << from_rows.reason;
    const LinearRep got = *from_rows.rep;
    ASSERT_EQ(got.peek, want.peek);
    ASSERT_EQ(got.pop, want.pop);
    ASSERT_EQ(got.push, want.push);
    for (std::size_t o = 0; o < static_cast<std::size_t>(r.push); ++o) {
      ASSERT_TRUE(same_bits(got.b[o], want.b[o])) << "b[" << o << "]";
      for (std::size_t i = 0; i < static_cast<std::size_t>(r.peek); ++i) {
        ASSERT_TRUE(same_bits(got.A.at(o, i), want.A.at(o, i)))
            << "A[" << o << "][" << i << "]";
      }
    }
  }
}

// The selection's extraction memo is keyed by work AST; filters that share
// one but carry different coefficients must still extract apart.
TEST(SelectionCacheTest, SharedWorkAstKeepsEachFiltersCoefficients) {
  const StmtP work = seq({push_(peek_(0) * at("h", ci(0))), discard(1)});
  const auto scaled = [&](const char* name, double h) {
    return filter(name).rates(1, 1, 1).array_init("h", {Value(h)}).work(work).build();
  };
  const FilterSpec twice = scaled("twice", 2.0);
  const FilterSpec thrice = scaled("thrice", 3.0);
  SelectionCache cache;
  for (int round = 0; round < 2; ++round) {
    const ExtractResult& a = cache.extract(twice);
    ASSERT_TRUE(a.rep.has_value());
    EXPECT_EQ(a.rep->A.at(0, 0), 2.0);
    const ExtractResult& b = cache.extract(thrice);
    ASSERT_TRUE(b.rep.has_value());
    EXPECT_EQ(b.rep->A.at(0, 0), 3.0);
  }
}

TEST(Optimize, ExtractTreeOnSplitJoin) {
  auto sj = make_splitjoin(
      "sub", duplicate_split(), roundrobin_join({1, 1}),
      {fir_node("lo", {0.5, 0.5}), fir_node("hi", {0.5, -0.5})});
  const auto rep = extract_tree(sj);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->pop, 1);
  EXPECT_EQ(rep->push, 2);
  EXPECT_EQ(rep->peek, 2);
}

}  // namespace
}  // namespace sit::linear
