// Tests for the static-analysis framework: the interval bounds pass,
// definite initialization, constant folding (and the linear-extraction
// improvement it buys), graph-level rate/liveness checks, the dynamic-peek
// structural diagnostic, and the interpreter's debug-mode channel checks.
//
// Negative-path coverage matters most here: every pass must reject its
// characteristic broken program with an *error* diagnostic, since the
// executors gate on analysis::analyze reporting no errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>

#include "analysis/analyze.h"
#include "analysis/constprop.h"
#include "analysis/definite_init.h"
#include "analysis/graph_checks.h"
#include "analysis/interval.h"
#include "analysis/intervals.h"
#include "apps/common.h"
#include "ir/dsl.h"
#include "ir/validate.h"
#include "linear/extract.h"
#include "runtime/eval_ops.h"
#include "runtime/interp.h"

namespace sit::analysis {
namespace {

using namespace sit::ir::dsl;
using ir::NodeP;
using ir::Value;

bool any_diag(const std::vector<Diagnostic>& ds, Severity sev,
              const std::string& substr) {
  for (const auto& d : ds) {
    if (d.severity == sev && (d.message + d.detail).find(substr) !=
                                 std::string::npos) {
      return true;
    }
  }
  return false;
}

NodeP wrap(NodeP mid, int sink_pop) {
  return ir::make_pipeline("t", {apps::rand_source("src"), std::move(mid),
                                 apps::null_sink("sink", sink_pop)});
}

// ---- bounds pass ------------------------------------------------------------

// iv_shl_const must contain what the runtime computes: a shift that can
// overflow wraps (int_shl), so its interval is top.
TEST(IntervalOps, ShlConstThatCanOverflowIsTop) {
  const std::int64_t two62 = std::int64_t{1} << 62;
  const Interval wraps = iv_shl_const(Interval::range(1, two62), 2);
  EXPECT_TRUE(wraps.is_top()) << wraps.str();
  EXPECT_TRUE(wraps.contains(
      runtime::apply_bin(ir::BinOp::Shl, Value(two62), Value(std::int64_t{2})).as_int()));
  EXPECT_TRUE(iv_shl_const(Interval::at_least(1), 1).is_top());
  EXPECT_EQ(iv_shl_const(Interval::range(1, std::int64_t{1} << 60), 2),
            Interval::range(4, two62));
  EXPECT_EQ(iv_shl_const(Interval::range(3, 5), 0), Interval::range(3, 5));
  EXPECT_EQ(iv_shl_const(Interval::exact(Interval::kMax), 0),
            Interval::exact(Interval::kMax));
}

// Every arithmetic interval op must contain what the runtime computes at
// every pair of points its operands cover, wrapping included: random
// intervals, with endpoints drawn often from near the int64 extremes, and
// random points inside them.
TEST(IntervalOps, ArithmeticContainsTheRuntimeResult) {
  std::mt19937_64 rng(31);
  const std::int64_t two62 = std::int64_t{1} << 62;
  const std::int64_t ends[] = {Interval::kMin,     Interval::kMin + 1,
                               -two62,             -1000,
                               -1,                 0,
                               1,                  1000,
                               two62,              Interval::kMax - 1,
                               Interval::kMax};
  const auto endpoint = [&]() -> std::int64_t {
    return rng() % 2 ? ends[rng() % std::size(ends)]
                     : static_cast<std::int64_t>(rng());
  };
  const auto point = [&](const Interval& iv) -> std::int64_t {
    if (rng() % 3 == 0) return iv.lo;
    if (rng() % 2 == 0) return iv.hi;
    const std::uint64_t span = static_cast<std::uint64_t>(iv.hi) -
                               static_cast<std::uint64_t>(iv.lo);
    const std::uint64_t off = span == UINT64_MAX ? rng() : rng() % (span + 1);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(iv.lo) + off);
  };
  using ir::BinOp;
  using ir::UnOp;
  for (int k = 0; k < 20000; ++k) {
    const std::int64_t a = endpoint(), b = endpoint();
    const std::int64_t c = endpoint(), d = endpoint();
    const Interval X = Interval::range(std::min(a, b), std::max(a, b));
    const Interval Y = Interval::range(std::min(c, d), std::max(c, d));
    const Value x(point(X)), y(point(Y));
    const std::string at = X.str() + ", " + Y.str() + " at " +
                           std::to_string(x.as_int()) + ", " +
                           std::to_string(y.as_int());
    ASSERT_TRUE(iv_add(X, Y).contains(
        runtime::apply_bin(BinOp::Add, x, y).as_int())) << "add " << at;
    ASSERT_TRUE(iv_sub(X, Y).contains(
        runtime::apply_bin(BinOp::Sub, x, y).as_int())) << "sub " << at;
    ASSERT_TRUE(iv_mul(X, Y).contains(
        runtime::apply_bin(BinOp::Mul, x, y).as_int())) << "mul " << at;
    ASSERT_TRUE(iv_neg(X).contains(runtime::apply_un(UnOp::Neg, x).as_int()))
        << "neg " << at;
    ASSERT_TRUE(iv_abs(X).contains(runtime::apply_un(UnOp::Abs, x).as_int()))
        << "abs " << at;
  }
}

TEST(Bounds, RejectsPeekBeyondWindow) {
  const auto spec = filter("f")
                        .rates(2, 2, 1)
                        .work(seq({push_(peek_(ci(5))), discard(2)}))
                        .build();
  std::vector<Diagnostic> ds;
  check_bounds(spec, ds);
  EXPECT_TRUE(any_diag(ds, Severity::Error, "beyond the declared window"));
}

TEST(Bounds, RejectsNegativePeekOffset) {
  const auto spec = filter("f")
                        .rates(1, 1, 1)
                        .work(seq({let("i", ci(0) - ci(2)),
                                   push_(peek_(v("i"))), discard(1)}))
                        .build();
  std::vector<Diagnostic> ds;
  check_bounds(spec, ds);
  EXPECT_TRUE(any_diag(ds, Severity::Error, "negative"));
}

TEST(Bounds, CountsPopsTowardTheWindow) {
  // peek(2) is fine at the start of a firing but not after a pop: the
  // window is max(peek, pop) = 3 and pops+offset reaches 3.
  const auto spec = filter("f")
                        .rates(3, 3, 1)
                        .work(seq({let("x", pop_()), push_(peek_(ci(2)) + v("x")),
                                   discard(2)}))
                        .build();
  std::vector<Diagnostic> ds;
  check_bounds(spec, ds);
  EXPECT_TRUE(any_diag(ds, Severity::Error, "beyond the declared window"));
}

TEST(Bounds, RejectsStateArrayOverflow) {
  const auto spec = filter("f")
                        .rates(1, 1, 1)
                        .array("w", 4)
                        .work(seq({set_at("w", ci(7), pop_()),
                                   push_(at("w", ci(0)))}))
                        .build();
  std::vector<Diagnostic> ds;
  check_bounds(spec, ds);
  EXPECT_TRUE(any_diag(ds, Severity::Error, "out of bounds"));
}

// Regression: an outer loop variable indexing through an inner loop must not
// stay widened to +inf -- the narrowing/targeted-widening machinery has to
// recover [0, n) for the matmul access pattern every DCT-style filter uses.
TEST(Bounds, AcceptsNestedLoopMatrixAccess) {
  const int n = 8;
  const auto spec =
      filter("mm")
          .rates(n, n, n)
          .array_init("m", std::vector<Value>(n * n, Value(1.0)))
          .work(seq({for_("r", 0, n,
                          seq({let("s", c(0.0)),
                               for_("cc", 0, n,
                                    let("s", v("s") + peek_(v("cc")) *
                                                 at("m", v("r") * n + v("cc")))),
                               push_(v("s"))})),
                     discard(n)}))
          .build();
  std::vector<Diagnostic> ds;
  check_bounds(spec, ds);
  EXPECT_TRUE(ds.empty()) << render(ds);
}

// Regression: a circular state index `count = (count + 1) % n` must be
// proven to stay in [0, n-1] across firings (the inter-firing fixpoint
// widens it to [0, 2^62] first; narrowing brings it back).
TEST(Bounds, AcceptsModularStateIndex) {
  const int n = 8;
  const auto spec = filter("osc")
                        .rates(1, 1, 1)
                        .array("w", n)
                        .iscalar("count", 0)
                        .work(seq({push_(pop_() * at("w", v("count"))),
                                   let("count", (v("count") + 1) % n)}))
                        .build();
  std::vector<Diagnostic> ds;
  check_bounds(spec, ds);
  EXPECT_TRUE(ds.empty()) << render(ds);
}

// ---- definite initialization ------------------------------------------------

TEST(DefiniteInit, RejectsReadOfUnassignedLocal) {
  const auto spec = filter("f")
                        .rates(1, 1, 1)
                        .work(seq({push_(v("acc") + pop_())}))
                        .build();
  std::vector<Diagnostic> ds;
  check_definite_init(spec, ds);
  EXPECT_TRUE(any_diag(ds, Severity::Error, "never assigned"));
}

TEST(DefiniteInit, WarnsOnBranchOnlyAssignment) {
  const auto spec =
      filter("f")
          .rates(1, 1, 1)
          .work(seq({if_(peek_(ci(0)) > c(0.0), let("x", c(1.0))),
                     push_(v("x") * pop_())}))
          .build();
  std::vector<Diagnostic> ds;
  check_definite_init(spec, ds);
  EXPECT_TRUE(any_diag(ds, Severity::Warning, "may be read"));
  EXPECT_FALSE(has_errors(ds)) << render(ds);
}

TEST(DefiniteInit, LoopVariableSurvivesTheLoop) {
  // After `for (i in 0..n)` the variable still holds a value (the
  // interpreter leaves lo behind even for zero-trip loops): no diagnostic.
  const auto spec = filter("f")
                        .rates(1, 1, 1)
                        .work(seq({for_("i", 0, 4, let("y", v("i"))),
                                   push_(to_float(v("i")) + pop_())}))
                        .build();
  std::vector<Diagnostic> ds;
  check_definite_init(spec, ds);
  EXPECT_FALSE(has_errors(ds)) << render(ds);
}

TEST(DefiniteInit, FlagsDeadAndPhantomState) {
  auto spec = filter("f")
                  .rates(1, 1, 1)
                  .scalar("hoard")  // written but never read
                  .work(seq({let("hoard", pop_()), push_(v("ghost"))}))
                  .build();
  // "ghost" is declared with no initializer at all (a .scalar() declaration
  // carries one): it is read but written nowhere, so it can only be zero.
  ir::VarDecl ghost;
  ghost.name = "ghost";
  spec.state.push_back(ghost);
  std::vector<Diagnostic> ds;
  check_definite_init(spec, ds);
  EXPECT_TRUE(any_diag(ds, Severity::Error, "never initialized or written"));
  EXPECT_TRUE(any_diag(ds, Severity::Warning, "never read"));
}

// ---- constant folding -------------------------------------------------------

TEST(ConstProp, ReportsDivisionByConstantZero) {
  const auto body = seq({let("n", ci(4) - ci(4)),
                         push_(pop_() / to_float(ci(12) % v("n")))});
  const FoldResult r = fold_body(body, "f/work");
  EXPECT_TRUE(any_diag(r.diagnostics, Severity::Error, "zero"));
}

TEST(ConstProp, FoldsShortCircuitWithoutEvaluatingRhs) {
  // `1 || pop()` must fold to 1 *without* deleting the pop's effect being
  // an issue -- the interpreter short-circuits, so the rhs never runs.
  const auto body = seq({let("on", ci(1) || (pop_() > c(0.0))),
                         push_(sel(v("on"), c(2.0), pop_()))});
  const FoldResult r = fold_body(body, "f/work");
  EXPECT_TRUE(r.diagnostics.empty()) << render(r.diagnostics);
  // The fold collapses both the || and the ?: -- the folded body performs
  // no channel reads at all.
  const auto counts = ir::count_channel_ops(r.body);
  EXPECT_EQ(counts.pops, 0);
}

// Regression for the extraction upgrade: this filter is Top under plain
// abstract interpretation (`||` over an input-dependent comparison) but
// linear once constant folding collapses the statically-decided control
// flow.  ISSUE acceptance: at least one filter is linear only with
// propagation enabled.
TEST(ConstProp, EnablesLinearExtraction) {
  const auto spec =
      filter("gated")
          .rates(1, 1, 1)
          .work(seq({let("on", ci(1) || (peek_(ci(0)) > c(0.0))),
                     push_(sel(v("on"), peek_(ci(0)) * c(2.0), c(0.0))),
                     discard(1)}))
          .build();

  const auto raw = linear::extract(spec, linear::ExtractOptions{false});
  EXPECT_FALSE(raw.rep.has_value());

  const auto folded = linear::extract(spec);
  ASSERT_TRUE(folded.rep.has_value()) << folded.reason;
  EXPECT_DOUBLE_EQ(folded.rep->A.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(folded.rep->b[0], 0.0);
}

// ---- graph checks -----------------------------------------------------------

TEST(GraphChecks, RejectsUnsolvableRates) {
  auto doubler = filter("doubler")
                     .rates(1, 1, 2)
                     .work(seq({let("x", pop_()), push_(v("x")), push_(v("x"))}))
                     .node();
  auto sj = ir::make_splitjoin("mismatch", ir::duplicate_split(),
                               ir::roundrobin_join({1, 1}),
                               {identity("thru"), std::move(doubler)});
  std::vector<Diagnostic> ds;
  check_graph(wrap(std::move(sj), 1), ds);
  EXPECT_TRUE(any_diag(ds, Severity::Error, "inconsistent rates"));
}

TEST(GraphChecks, RejectsStarvedFeedbackLoop) {
  auto loop = ir::make_feedback("starved", ir::roundrobin_join({1, 1}),
                                identity("body"), ir::roundrobin_split({1, 1}),
                                apps::gain("decay", 0.5), /*delay=*/0,
                                /*init_path=*/{});
  std::vector<Diagnostic> ds;
  check_graph(wrap(std::move(loop), 1), ds);
  EXPECT_TRUE(any_diag(ds, Severity::Error, "deadlock"));
}

TEST(GraphChecks, AcceptsProperlyDelayedFeedbackLoop) {
  auto loop = ir::make_feedback("fine", ir::roundrobin_join({1, 1}),
                                identity("body"), ir::roundrobin_split({1, 1}),
                                apps::gain("decay", 0.5), /*delay=*/1,
                                /*init_path=*/{0.0});
  std::vector<Diagnostic> ds;
  check_graph(wrap(std::move(loop), 1), ds);
  EXPECT_TRUE(ds.empty()) << render(ds);
}

// ---- dynamic peek offsets ---------------------------------------------------

TEST(DynamicPeek, CountsFlagInsteadOfSilentZeroWindow) {
  const auto spec = filter("f")
                        .rates(2, 2, 1)
                        .work(seq({push_(peek_(to_int(pop_()))), discard(1)}))
                        .build();
  const auto cc = ir::count_channel_ops(spec.work);
  EXPECT_TRUE(cc.dynamic_peek);
  EXPECT_EQ(cc.max_peek, 0);

  const auto ds = ir::check(wrap(ir::make_filter(spec), 1));
  EXPECT_TRUE(any_diag(ds, Severity::Error, "non-static offset"));
}

// ---- whole-suite driver -----------------------------------------------------

TEST(Analyze, GatesErrorsButToleratesWarnings) {
  // `hoard` is dead state (warning only): the program must still pass.
  auto warn_only = filter("w")
                       .rates(1, 1, 1)
                       .scalar("hoard")
                       .work(seq({let("hoard", peek_(ci(0))), push_(pop_())}))
                       .node();
  const AnalysisResult warn_res = analysis::analyze(wrap(std::move(warn_only), 1));
  EXPECT_TRUE(warn_res.ok());
  EXPECT_GT(warn_res.diagnostics.size(), 0u);

  auto broken = filter("b")
                    .rates(1, 1, 1)
                    .work(seq({push_(v("nope") + pop_())}))
                    .node();
  EXPECT_FALSE(analysis::analyze(wrap(std::move(broken), 1)).ok());
}

// ---- interpreter debug checks ----------------------------------------------

class VecIn final : public ir::InTape {
 public:
  explicit VecIn(std::vector<double> v) : v_(std::move(v)) {}
  double peek_item(int offset) override {
    return v_[static_cast<std::size_t>(pos_ + offset)];
  }
  double pop_item() override { return v_[static_cast<std::size_t>(pos_++)]; }

 private:
  std::vector<double> v_;
  int pos_{0};
};

class VecOut final : public ir::OutTape {
 public:
  void push_item(double v) override { out.push_back(v); }
  std::vector<double> out;
};

TEST(DebugChannelChecks, AssertsPeekWithinDeclaredWindow) {
  // Declares peek=1 but reads offset 1; the tape itself has plenty of
  // items, so only the debug assertion can catch the lie.
  const auto spec = filter("liar")
                        .rates(1, 1, 1)
                        .work(seq({push_(peek_(ci(1))), discard(1)}))
                        .build();
  auto state = runtime::Interp::init_state(spec);

  ASSERT_FALSE(runtime::debug_channel_checks());
  {
    VecIn in({1.0, 2.0, 3.0});
    VecOut out;
    EXPECT_NO_THROW(runtime::Interp::run_work(spec, state, in, out, nullptr));
  }

  runtime::set_debug_channel_checks(true);
  {
    VecIn in({1.0, 2.0, 3.0});
    VecOut out;
    EXPECT_THROW(runtime::Interp::run_work(spec, state, in, out, nullptr),
                 std::runtime_error);
  }
  runtime::set_debug_channel_checks(false);

  // An honest filter is unaffected by the checks.
  const auto ok = filter("honest")
                      .rates(2, 1, 1)
                      .work(seq({push_(peek_(ci(1)) + peek_(ci(0))), discard(1)}))
                      .build();
  auto ok_state = runtime::Interp::init_state(ok);
  runtime::set_debug_channel_checks(true);
  VecIn in({1.0, 2.0, 3.0});
  VecOut out;
  EXPECT_NO_THROW(runtime::Interp::run_work(ok, ok_state, in, out, nullptr));
  runtime::set_debug_channel_checks(false);
  EXPECT_EQ(out.out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.out[0], 3.0);
}

}  // namespace
}  // namespace sit::analysis
