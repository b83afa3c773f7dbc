#include "core/predicate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace psn::core {
namespace {

GlobalState state_of(
    std::initializer_list<std::pair<VarRef, double>> entries) {
  GlobalState s;
  for (const auto& [ref, v] : entries) s.set(ref, v);
  return s;
}

TEST(ExprTest, ConstantsAndArithmetic) {
  const GlobalState empty;
  EXPECT_DOUBLE_EQ(constant(5.0)->evaluate(empty), 5.0);
  EXPECT_DOUBLE_EQ(
      binary(BinaryOp::kAdd, constant(2.0), constant(3.0))->evaluate(empty),
      5.0);
  EXPECT_DOUBLE_EQ(
      binary(BinaryOp::kSub, constant(2.0), constant(3.0))->evaluate(empty),
      -1.0);
  EXPECT_DOUBLE_EQ(
      binary(BinaryOp::kMul, constant(2.0), constant(3.0))->evaluate(empty),
      6.0);
  EXPECT_DOUBLE_EQ(
      binary(BinaryOp::kDiv, constant(6.0), constant(3.0))->evaluate(empty),
      2.0);
}

TEST(ExprTest, DivisionByZeroThrows) {
  const GlobalState empty;
  EXPECT_THROW(
      binary(BinaryOp::kDiv, constant(1.0), constant(0.0))->evaluate(empty),
      InvariantError);
}

TEST(ExprTest, VariablesReadState) {
  const auto s = state_of({{{1, "x"}, 5.0}});
  EXPECT_DOUBLE_EQ(var(1, "x")->evaluate(s), 5.0);
  // A missing variable evaluates as 0.
  EXPECT_DOUBLE_EQ(var(2, "x")->evaluate(s), 0.0);
}

TEST(ExprTest, Comparisons) {
  const auto s = state_of({{{1, "x"}, 5.0}});
  EXPECT_TRUE(binary(BinaryOp::kGt, var(1, "x"), constant(4.0))->holds(s));
  EXPECT_FALSE(binary(BinaryOp::kGt, var(1, "x"), constant(5.0))->holds(s));
  EXPECT_TRUE(binary(BinaryOp::kGe, var(1, "x"), constant(5.0))->holds(s));
  EXPECT_TRUE(binary(BinaryOp::kLt, var(1, "x"), constant(6.0))->holds(s));
  EXPECT_TRUE(binary(BinaryOp::kEq, var(1, "x"), constant(5.0))->holds(s));
  EXPECT_TRUE(binary(BinaryOp::kNe, var(1, "x"), constant(4.0))->holds(s));
  EXPECT_TRUE(binary(BinaryOp::kLe, var(1, "x"), constant(5.0))->holds(s));
}

TEST(ExprTest, LogicalOperators) {
  const auto s = state_of({{{1, "x"}, 1.0}, {{2, "y"}, 0.0}});
  EXPECT_FALSE(binary(BinaryOp::kAnd, var(1, "x"), var(2, "y"))->holds(s));
  EXPECT_TRUE(binary(BinaryOp::kOr, var(1, "x"), var(2, "y"))->holds(s));
  EXPECT_TRUE(unary(UnaryOp::kNot, var(2, "y"))->holds(s));
  EXPECT_FALSE(unary(UnaryOp::kNot, var(1, "x"))->holds(s));
  EXPECT_DOUBLE_EQ(unary(UnaryOp::kNeg, var(1, "x"))->evaluate(s), -1.0);
}

TEST(ExprTest, LogicalResultIsBoolean01) {
  const auto s = state_of({{{1, "x"}, 7.0}});
  EXPECT_DOUBLE_EQ(
      binary(BinaryOp::kAnd, var(1, "x"), var(1, "x"))->evaluate(s), 1.0);
  EXPECT_DOUBLE_EQ(
      binary(BinaryOp::kOr, var(1, "x"), var(1, "x"))->evaluate(s), 1.0);
}

TEST(ExprTest, AggregatesOverProcesses) {
  const auto s = state_of(
      {{{1, "x"}, 3.0}, {{2, "x"}, 4.0}, {{5, "x"}, 5.0}, {{1, "y"}, 100.0}});
  EXPECT_DOUBLE_EQ(aggregate(AggregateOp::kSum, "x")->evaluate(s), 12.0);
  EXPECT_DOUBLE_EQ(aggregate(AggregateOp::kMin, "x")->evaluate(s), 3.0);
  EXPECT_DOUBLE_EQ(aggregate(AggregateOp::kMax, "x")->evaluate(s), 5.0);
  EXPECT_DOUBLE_EQ(aggregate(AggregateOp::kCount, "x")->evaluate(s), 3.0);
}

TEST(ExprTest, AggregateOverNothingIsZero) {
  const GlobalState empty;
  EXPECT_DOUBLE_EQ(aggregate(AggregateOp::kSum, "x")->evaluate(empty), 0.0);
}

TEST(ExprTest, ExhibitionHallPredicateShape) {
  // sum(entered) - sum(exited) > 200 — the paper's §5 predicate.
  const auto phi = binary(
      BinaryOp::kGt,
      binary(BinaryOp::kSub, aggregate(AggregateOp::kSum, "entered"),
             aggregate(AggregateOp::kSum, "exited")),
      constant(200.0));
  auto s = state_of({{{1, "entered"}, 150.0},
                     {{2, "entered"}, 60.0},
                     {{1, "exited"}, 5.0},
                     {{2, "exited"}, 4.0}});
  EXPECT_TRUE(phi->holds(s));  // 210 - 9 = 201 > 200
  s.set({2, "exited"}, 5.0);
  EXPECT_FALSE(phi->holds(s));  // exactly 200 is not > 200
}

TEST(ExprTest, ReadSetIsNamedVarsAndAggregatedNames) {
  const auto e =
      binary(BinaryOp::kAdd, aggregate(AggregateOp::kSum, "x"), var(3, "y"));
  std::set<VarRef> vars;
  e->collect_vars(vars);
  EXPECT_EQ(vars, (std::set<VarRef>{{3, "y"}}));
  std::set<std::string> names;
  e->collect_aggregate_names(names);
  EXPECT_EQ(names, (std::set<std::string>{"x"}));
}

TEST(ExprTest, ToStringRoundTripShape) {
  const auto e =
      binary(BinaryOp::kAnd,
             binary(BinaryOp::kGt, var(1, "temp"), constant(30.0)),
             var(2, "occupied"));
  EXPECT_EQ(e->to_string(), "((temp[1] > 30) && occupied[2])");
}

TEST(PredicateTest, ConjunctiveClassification) {
  // Paper §3.1.2: ψ = (x_i = 5) ∧ (y_j > 7) is conjunctive...
  const Predicate psi(
      "psi", binary(BinaryOp::kAnd,
                    binary(BinaryOp::kEq, var(1, "x"), constant(5.0)),
                    binary(BinaryOp::kGt, var(2, "y"), constant(7.0))));
  EXPECT_TRUE(psi.is_conjunctive());
  // ...while φ = x_i + y_j > 7 is relational.
  const Predicate phi(
      "phi", binary(BinaryOp::kGt,
                    binary(BinaryOp::kAdd, var(1, "x"), var(2, "y")),
                    constant(7.0)));
  EXPECT_FALSE(phi.is_conjunctive());
}

TEST(PredicateTest, AggregateMakesRelational) {
  const Predicate p("p", binary(BinaryOp::kGt,
                                aggregate(AggregateOp::kSum, "x"),
                                constant(1.0)));
  EXPECT_FALSE(p.is_conjunctive());
}

TEST(PredicateTest, MultiConjunctsSameProcessStayConjunctive) {
  const Predicate p(
      "p", binary(BinaryOp::kAnd,
                  binary(BinaryOp::kAnd,
                         binary(BinaryOp::kGt, var(1, "temp"), constant(30.0)),
                         binary(BinaryOp::kLt, var(1, "hum"), constant(40.0))),
                  var(2, "occ")));
  EXPECT_TRUE(p.is_conjunctive());
  const auto locals = p.local_conjuncts();
  EXPECT_EQ(locals.at(1).size(), 2u);
  EXPECT_EQ(locals.at(2).size(), 1u);
}

TEST(PredicateTest, LocalConjunctsRequireConjunctive) {
  const Predicate p(
      "p", binary(BinaryOp::kGt,
                  binary(BinaryOp::kAdd, var(1, "x"), var(2, "y")),
                  constant(7.0)));
  EXPECT_THROW(p.local_conjuncts(), InvariantError);
}

TEST(PredicateTest, DisjunctionAcrossProcessesIsOneConjunct) {
  // (x[1] > 0 || y[2] > 0) spans two processes inside one conjunct →
  // not conjunctive.
  const Predicate p(
      "p", binary(BinaryOp::kOr,
                  binary(BinaryOp::kGt, var(1, "x"), constant(0.0)),
                  binary(BinaryOp::kGt, var(2, "y"), constant(0.0))));
  EXPECT_FALSE(p.is_conjunctive());
}

// --- incremental aggregates (DESIGN.md §11) ---------------------------------

/// The pid-ordered fold sum/count/min/max are defined by: one pass over
/// every variable in (pid, name) order, which is std::map's order.
double reference_fold(const std::map<VarRef, double>& values, AggregateOp op,
                      const std::string& name) {
  bool first = true;
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& [ref, v] : values) {
    if (ref.name != name) continue;
    switch (op) {
      case AggregateOp::kSum: acc += v; break;
      case AggregateOp::kMin: acc = first ? v : std::min(acc, v); break;
      case AggregateOp::kMax: acc = first ? v : std::max(acc, v); break;
      case AggregateOp::kCount: break;
    }
    first = false;
    n++;
  }
  return op == AggregateOp::kCount ? static_cast<double>(n) : acc;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-for-bit equality, except that any NaN equals any NaN.
bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return bits(a) == bits(b);
}

TEST(AggregateExactnessTest, RandomSetsMatchPidOrderedFoldBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::string names[] = {"a", "b", "c"};
  const AggregateOp ops[] = {AggregateOp::kSum, AggregateOp::kCount,
                             AggregateOp::kMin, AggregateOp::kMax};
  for (std::uint64_t seed = 1; seed <= 24; seed++) {
    Rng rng(seed);
    const std::int64_t num_names = rng.uniform_int(2, 3);
    const std::int64_t num_pids = rng.uniform_int(1, 64);
    GlobalState s;
    std::map<VarRef, double> reference;
    for (int step = 0; step < 400; step++) {
      double v = 0.0;
      switch (rng.uniform_int(0, 9)) {
        case 0: v = -0.0; break;
        case 1: v = static_cast<double>(rng.uniform_int(0, 9)) + 0.1; break;
        case 2: v = rng.bernoulli(0.5) ? 0x1p40 : -0x1p40; break;
        case 3: v = std::numeric_limits<double>::quiet_NaN(); break;
        case 4: v = rng.bernoulli(0.5) ? kInf : -kInf; break;
        case 5: v = rng.bernoulli(0.5) ? 0x1p32 : -0x1p32; break;
        default: v = static_cast<double>(rng.uniform_int(-50, 50)); break;
      }
      // A narrow pid range, so most steps overwrite an existing variable.
      const auto pid = static_cast<ProcessId>(rng.uniform_int(0, num_pids - 1));
      const VarRef ref{pid, names[rng.uniform_int(0, num_names - 1)]};
      s.set(ref, v);
      reference[ref] = v;
      for (std::int64_t n = 0; n < num_names; n++) {
        for (const AggregateOp op : ops) {
          const double got = aggregate(op, names[n])->evaluate(s);
          const double want = reference_fold(reference, op, names[n]);
          ASSERT_TRUE(same_bits(got, want))
              << "seed " << seed << " step " << step << " "
              << to_string(op) << "(" << names[n] << "): got " << got
              << ", fold " << want;
        }
      }
    }
  }
}

TEST(AggregateExactnessTest, OverwrittenNaNOrFractionLeavesSumExact) {
  const auto sum = aggregate(AggregateOp::kSum, "x");
  for (const double inexact :
       {std::numeric_limits<double>::quiet_NaN(), 0.1}) {
    GlobalState s;
    s.set({1, "x"}, 3.0);
    s.set({2, "x"}, inexact);
    s.set({2, "x"}, 4.0);
    EXPECT_EQ(bits(sum->evaluate(s)), bits(7.0));
    s.set({1, "x"}, 0x1p52);  // integral, but past the exact magnitude bound
    s.set({1, "x"}, 3.0);
    EXPECT_EQ(bits(sum->evaluate(s)), bits(7.0));
  }
}

TEST(AggregateExactnessTest, AllZeroStateWithNegativeZeroSumsToPositiveZero) {
  const auto sum = aggregate(AggregateOp::kSum, "x");
  const auto mixed =
      state_of({{{1, "x"}, -0.0}, {{2, "x"}, 0.0}, {{3, "x"}, -0.0}});
  EXPECT_EQ(bits(sum->evaluate(mixed)), bits(0.0));
  const auto only_negative = state_of({{{1, "x"}, -0.0}});
  EXPECT_EQ(bits(sum->evaluate(only_negative)), bits(0.0));
}

TEST(GlobalStateTest, CountsVariablesPerName) {
  const auto s = state_of({{{1, "x"}, 1.0}, {{3, "x"}, 2.0}, {{1, "y"}, 3.0}});
  EXPECT_EQ(s.count_named("x"), 2u);
  EXPECT_EQ(s.count_named("y"), 1u);
  EXPECT_EQ(s.count_named("z"), 0u);
  EXPECT_EQ(s.get({3, "x"}), 2.0);
  EXPECT_EQ(s.get({2, "x"}), std::nullopt);
  EXPECT_EQ(s.get({1, "z"}), std::nullopt);
}

TEST(GlobalStateTest, FoldIsInPidOrderWhateverTheArrivalOrder) {
  // Arrival order 7, 2, 4. 2^53 is inexact, so sum(x) folds: in pid order
  // 2^53 + 1 rounds back to 2^53 and the fold ends at 0; in arrival order
  // it would end at 1.
  GlobalState s;
  s.set({7, "x"}, -0x1p53);
  s.set({2, "x"}, 0x1p53);
  s.set({4, "x"}, 1.0);
  std::vector<ProcessId> visited;
  s.for_each_named("x", [&](ProcessId pid, double) { visited.push_back(pid); });
  EXPECT_EQ(visited, (std::vector<ProcessId>{2, 4, 7}));
  EXPECT_EQ(bits(aggregate(AggregateOp::kSum, "x")->evaluate(s)), bits(0.0));
}

}  // namespace
}  // namespace psn::core
