// Tests for the work-function AST, builder DSL, graph construction, and the
// semantic checker (the appendix rules of the paper).

#include <chrono>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "ir/ast.h"
#include "ir/dsl.h"
#include "ir/graph.h"
#include "ir/validate.h"

namespace sit::ir {
namespace {

using namespace sit::ir::dsl;

TEST(Ast, FactoriesProduceExpectedKinds) {
  EXPECT_EQ(iconst(3)->kind, Expr::Kind::IntConst);
  EXPECT_EQ(fconst(2.5)->kind, Expr::Kind::FloatConst);
  EXPECT_EQ(var("x")->kind, Expr::Kind::Var);
  EXPECT_EQ(aref("a", iconst(0))->kind, Expr::Kind::ArrayRef);
  EXPECT_EQ(peek(iconst(1))->kind, Expr::Kind::Peek);
  EXPECT_EQ(pop()->kind, Expr::Kind::Pop);
  EXPECT_EQ(bin(BinOp::Add, iconst(1), iconst(2))->kind, Expr::Kind::Bin);
  EXPECT_EQ(un(UnOp::Sin, fconst(0.0))->kind, Expr::Kind::Un);
}

TEST(Ast, PrintingRoundTripsStructure) {
  const E e = (v("x") + c(1.0)) * peek_(2);
  EXPECT_EQ(to_string(e.e), "((x + 1) * peek(2))");
  const StmtP s = seq({let("y", e), push_(v("y"))});
  const std::string text = to_string(s);
  EXPECT_NE(text.find("y = ((x + 1) * peek(2));"), std::string::npos);
  EXPECT_NE(text.find("push(y);"), std::string::npos);
}

TEST(Ast, DslOperatorsBuildCorrectOps) {
  EXPECT_EQ((v("a") - v("b")).e->bop, BinOp::Sub);
  EXPECT_EQ((v("a") / v("b")).e->bop, BinOp::Div);
  EXPECT_EQ((v("a") % v("b")).e->bop, BinOp::Mod);
  EXPECT_EQ((v("a") < v("b")).e->bop, BinOp::Lt);
  EXPECT_EQ((v("a") ^ v("b")).e->bop, BinOp::BXor);
  EXPECT_EQ((v("a") << 2).e->bop, BinOp::Shl);
  EXPECT_EQ(min_(v("a"), v("b")).e->bop, BinOp::Min);
  EXPECT_EQ(sqrt_(v("a")).e->uop, UnOp::Sqrt);
}

TEST(ChannelCounts, SimplePushPop) {
  // work { push(pop() + peek(2)); pop(1); }
  const StmtP w = seq({push_(pop_() + peek_(2)), discard(1)});
  const ChannelCounts cc = count_channel_ops(w);
  EXPECT_EQ(cc.pops, 2);
  EXPECT_EQ(cc.pushes, 1);
  // peek(2) happens after one pop, so it reaches window index 1 + 2 + 1 = 4.
  EXPECT_EQ(cc.max_peek, 4);
  EXPECT_TRUE(cc.static_counts);
}

TEST(ChannelCounts, LoopsAreUnrolledWithConstantBounds) {
  // for (i = 0; i < 4; i++) push(peek(i));  pop(2);
  const StmtP w = seq({for_("i", 0, 4, push_(peek_(v("i")))), discard(2)});
  const ChannelCounts cc = count_channel_ops(w);
  EXPECT_EQ(cc.pops, 2);
  EXPECT_EQ(cc.pushes, 4);
  EXPECT_EQ(cc.max_peek, 4);
}

// Shift counts are taken mod 64, as the runtime does: the loop bound below
// is 1 << (70 & 63) = 64, so the filter pushes 64 items per firing.
TEST(ChannelCounts, ShiftCountsAreTakenModSixtyFour) {
  const StmtP w =
      seq({for_("i", ci(0), ci(1) << ci(70), push_(v("i"))), discard(1)});
  const ChannelCounts cc = count_channel_ops(w);
  EXPECT_TRUE(cc.static_counts);
  EXPECT_EQ(cc.pushes, 64);
  EXPECT_TRUE(check(filter("wide").rates(1, 1, 64).work(w).node()).empty());
  EXPECT_FALSE(check(filter("narrow").rates(1, 1, 1).work(w).node()).empty());
}

// Constants evaluate as the tree evaluates them: Values through the
// operator table, with as_int() or truthy() applied only where the runtime
// applies it.  Truncating each float leaf first would take the other
// branch, run the loop zero times, or read a shorter window.
TEST(ChannelCounts, FloatConditionIsTruthy) {
  // if (0.5) push(pop()) else push(0)
  const StmtP w = seq({if_(c(0.5), push_(pop_()), push_(c(0.0)))});
  const ChannelCounts cc = count_channel_ops(w);
  EXPECT_TRUE(cc.static_counts);
  EXPECT_EQ(cc.pops, 1);
  EXPECT_EQ(cc.pushes, 1);
}

TEST(ChannelCounts, FloatLoopBoundIsSummedBeforeTruncation) {
  // for (i = 0; i < 0.5 + 0.5; i++) push(pop())
  const StmtP w = seq({for_("i", ci(0), c(0.5) + c(0.5), push_(pop_()))});
  const ChannelCounts cc = count_channel_ops(w);
  EXPECT_TRUE(cc.static_counts);
  EXPECT_EQ(cc.pops, 1);
  EXPECT_EQ(cc.pushes, 1);
}

TEST(ChannelCounts, MixedComparisonPromotesToFloat) {
  // if (1 < 1.5) push(pop()) else push(0)
  const StmtP w = seq({if_(ci(1) < c(1.5), push_(pop_()), push_(c(0.0)))});
  const ChannelCounts cc = count_channel_ops(w);
  EXPECT_TRUE(cc.static_counts);
  EXPECT_EQ(cc.pops, 1);
}

TEST(ChannelCounts, FloatPeekOffsetIsSummedBeforeTruncation) {
  // push(peek(1.5 + 1.5)); pop(1) reads offset 3: a window of 4.
  const StmtP w = seq({push_(peek_(c(1.5) + c(1.5))), discard(1)});
  const ChannelCounts cc = count_channel_ops(w);
  EXPECT_EQ(cc.max_peek, 4);
  EXPECT_FALSE(check(filter("short").rates(3, 1, 1).work(w).node()).empty());
  EXPECT_TRUE(check(filter("long").rates(4, 1, 1).work(w).node()).empty());
}

TEST(ChannelCounts, BranchesMustAgree) {
  // if (x > 0) push(1) -- unbalanced against the empty else.
  const StmtP bad = seq({if_(v("x") > c(0.0), push_(c(1.0)))});
  EXPECT_FALSE(count_channel_ops(bad).static_counts);

  const StmtP good =
      seq({if_(v("x") > c(0.0), push_(c(1.0)), push_(c(2.0))), discard(1)});
  const ChannelCounts cc = count_channel_ops(good);
  EXPECT_TRUE(cc.static_counts);
  EXPECT_EQ(cc.pushes, 1);
  EXPECT_EQ(cc.pops, 1);
}

// A loop whose body touches no channel adds no counts, so the counter
// checks its bounds and does not unroll it: 2^40 trips cost no more than one.
TEST(ChannelCounts, ChannelFreeLoopsAreNotUnrolled) {
  // for (i = 0; i < 1 << 40; i++) x = i;  push(pop());
  const StmtP w = seq({for_("i", ci(0), ci(1) << ci(40), let("x", v("i"))),
                       push_(pop_())});
  const auto t0 = std::chrono::steady_clock::now();
  const ChannelCounts cc = count_channel_ops(w);
  EXPECT_TRUE(check(filter("long").rates(1, 1, 1).work(w).node()).empty());
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(cc.static_counts);
  EXPECT_EQ(cc.pops, 1);
  EXPECT_EQ(cc.pushes, 1);
  EXPECT_EQ(cc.max_peek, 1);
  EXPECT_LT(took, std::chrono::seconds(1));
}

// A channel-free body still has its nested loops' bounds checked: here the
// inner bound is a state variable, so the counts stay non-static.
TEST(ChannelCounts, ChannelFreeLoopsKeepTheirNestedVerdicts) {
  const StmtP w = seq({for_("i", ci(0), ci(1) << ci(40),
                            for_("j", ci(0), v("n"), let("x", v("j")))),
                       push_(pop_())});
  EXPECT_FALSE(count_channel_ops(w).static_counts);
}

// An induction step past the last trip that would overflow int64 makes the
// counts non-static, whether or not the body touches a channel.
TEST(ChannelCounts, OverflowingInductionStepIsNotStatic) {
  const E big = ci(std::numeric_limits<std::int64_t>::max());
  const E step = ci(1) << ci(62);
  EXPECT_FALSE(count_channel_ops(seq({for_loop_step("i", ci(0), big, step,
                                                    push_(pop_()))}))
                   .static_counts);
  EXPECT_FALSE(count_channel_ops(seq({for_loop_step("i", ci(0), big, step,
                                                    let("x", v("i"))),
                                      push_(pop_())}))
                   .static_counts);
  // Trips 0 and 2^61 step on to 2^62, which fits.
  const ChannelCounts ok = count_channel_ops(seq(
      {for_loop_step("i", ci(0), ci(1) << ci(62), ci(1) << ci(61), push_(pop_()))}));
  EXPECT_TRUE(ok.static_counts);
  EXPECT_EQ(ok.pushes, 2);
}

NodeP simple_filter(const std::string& name, int peek, int pp, int ps) {
  std::vector<StmtP> body;
  for (int i = 0; i < ps; ++i) body.push_back(push_(peek_(peek - 1)));
  body.push_back(discard(pp));
  return filter(name).rates(peek, pp, ps).work(seq(body)).node();
}

TEST(Validate, AcceptsWellFormedPipeline) {
  auto p = make_pipeline("p", {simple_filter("a", 1, 1, 2), simple_filter("b", 2, 2, 1)});
  EXPECT_TRUE(check(p).empty());
}

TEST(Validate, RejectsRateMismatchInWork) {
  auto f = filter("bad").rates(1, 1, 2).work(seq({push_(pop_())})).node();
  const auto vs = check(f);
  ASSERT_FALSE(vs.empty());
  EXPECT_NE(vs[0].message.find("pushes"), std::string::npos);
}

TEST(Validate, RejectsPeekBeyondDeclaration) {
  auto f = filter("bad").rates(2, 1, 1).work(seq({push_(peek_(5)), discard(1)})).node();
  EXPECT_FALSE(check(f).empty());
}

TEST(Validate, RejectsChannelOpsInInit) {
  auto f = filter("bad").rates(1, 1, 1).init(seq({let("x", pop_())}))
               .work(seq({push_(pop_())}))
               .node();
  EXPECT_FALSE(check(f).empty());
}

// A loop's step is read like its bounds: a pop there is a channel access.
TEST(Validate, RejectsChannelOpsInLoopStep) {
  const StmtP step_pops =
      for_loop_step("i", ci(0), ci(2), pop_(), let("x", v("i")));
  const auto in_init = check(filter("bad_init")
                                 .rates(1, 1, 1)
                                 .init(step_pops)
                                 .work(seq({push_(pop_())}))
                                 .node());
  ASSERT_FALSE(in_init.empty());
  EXPECT_NE(in_init[0].message.find("init function may not touch channels"),
            std::string::npos)
      << in_init[0].message;
  const auto in_handler = check(filter("bad_handler")
                                    .rates(1, 1, 1)
                                    .handler("go", {}, step_pops)
                                    .work(seq({push_(pop_())}))
                                    .node());
  ASSERT_FALSE(in_handler.empty());
  EXPECT_NE(in_handler[0].message.find("may not touch channels"),
            std::string::npos)
      << in_handler[0].message;
}

TEST(Validate, RejectsDuplicateInstance) {
  auto shared = simple_filter("s", 1, 1, 1);
  auto p = make_pipeline("p", {shared, shared});
  const auto vs = check(p);
  ASSERT_FALSE(vs.empty());
  EXPECT_NE(vs[0].message.find("more than once"), std::string::npos);
}

TEST(Validate, SplitJoinWeightArity) {
  auto sj = make_splitjoin("sj", roundrobin_split({1, 1, 1}), roundrobin_join({1, 1}),
                           {dsl::identity("i1"), dsl::identity("i2")});
  const auto vs = check(sj);
  ASSERT_FALSE(vs.empty());
}

TEST(Validate, FeedbackNeedsInitPathMatchingDelay) {
  auto body = simple_filter("body", 2, 2, 2);
  auto loop = simple_filter("loop", 1, 1, 1);
  auto fb = make_feedback("fb", roundrobin_join({1, 1}), body,
                          roundrobin_split({1, 1}), loop, 2, {0.0});
  EXPECT_FALSE(check(fb).empty());
}

TEST(Graph, CountAndCloneAreDeep) {
  auto p = make_pipeline(
      "p", {simple_filter("a", 1, 1, 1),
            make_splitjoin("sj", duplicate_split(), roundrobin_join({1, 1}),
                           {dsl::identity("x"), dsl::identity("y")})});
  EXPECT_EQ(count_filters(p), 3);
  auto q = clone(p);
  EXPECT_NE(q.get(), p.get());
  EXPECT_NE(q->children[0].get(), p->children[0].get());
  EXPECT_EQ(count_filters(q), 3);
  // Clone of a graph with shared instances fixes the duplication.
  EXPECT_TRUE(check(q).empty());
}

TEST(Graph, DescribeAndDotContainStructure) {
  auto sj = make_splitjoin("eq", duplicate_split(), roundrobin_join({1, 1}),
                           {dsl::identity("lo"), dsl::identity("hi")});
  const std::string d = describe(sj);
  EXPECT_NE(d.find("splitjoin eq"), std::string::npos);
  EXPECT_NE(d.find("duplicate"), std::string::npos);
  const std::string dot = to_dot(sj);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("triangle"), std::string::npos);
}

}  // namespace
}  // namespace sit::ir
