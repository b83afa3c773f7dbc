#include "core/predicate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/predicate_parser.hpp"
#include "support/bound_state.hpp"

namespace psn::core {
namespace {

using test_support::bound_state;
using test_support::eval;
using test_support::holds;

TEST(ExprTest, ConstantsAndArithmetic) {
  EXPECT_DOUBLE_EQ(eval("5"), 5.0);
  EXPECT_DOUBLE_EQ(eval("2 + 3"), 5.0);
  EXPECT_DOUBLE_EQ(eval("2 - 3"), -1.0);
  EXPECT_DOUBLE_EQ(eval("2 * 3"), 6.0);
  EXPECT_DOUBLE_EQ(eval("6 / 3"), 2.0);
}

TEST(ExprTest, DivisionByZeroThrows) {
  EXPECT_THROW(eval("1 / 0"), InvariantError);
  // A variable that has not reported reads as 0, so it divides by zero too.
  EXPECT_THROW(eval("1 / x[1]"), InvariantError);
}

TEST(ExprTest, VariablesReadState) {
  EXPECT_DOUBLE_EQ(eval("x[1]", {{{1, "x"}, 5.0}}), 5.0);
  // A missing variable evaluates as 0.
  EXPECT_DOUBLE_EQ(eval("x[2]", {{{1, "x"}, 5.0}}), 0.0);
}

TEST(ExprTest, Comparisons) {
  const test_support::Entries x5 = {{{1, "x"}, 5.0}};
  EXPECT_TRUE(holds("x[1] > 4", x5));
  EXPECT_FALSE(holds("x[1] > 5", x5));
  EXPECT_TRUE(holds("x[1] >= 5", x5));
  EXPECT_TRUE(holds("x[1] < 6", x5));
  EXPECT_TRUE(holds("x[1] == 5", x5));
  EXPECT_TRUE(holds("x[1] != 4", x5));
  EXPECT_TRUE(holds("x[1] <= 5", x5));
}

TEST(ExprTest, LogicalOperators) {
  const test_support::Entries s = {{{1, "x"}, 1.0}, {{2, "y"}, 0.0}};
  EXPECT_FALSE(holds("x[1] && y[2]", s));
  EXPECT_TRUE(holds("x[1] || y[2]", s));
  EXPECT_TRUE(holds("!y[2]", s));
  EXPECT_FALSE(holds("!x[1]", s));
  EXPECT_DOUBLE_EQ(eval("-x[1]", s), -1.0);
}

TEST(ExprTest, LogicalOperatorsShortCircuit) {
  // The right operand is not evaluated once the left decides, so its
  // division by zero never happens.
  EXPECT_FALSE(holds("false && 1 / 0"));
  EXPECT_TRUE(holds("true || 1 / 0"));
  EXPECT_THROW(eval("true && 1 / 0"), InvariantError);
  EXPECT_THROW(eval("false || 1 / 0"), InvariantError);
}

TEST(ExprTest, LogicalResultIsBoolean01) {
  const test_support::Entries s = {{{1, "x"}, 7.0}};
  EXPECT_DOUBLE_EQ(eval("x[1] && x[1]", s), 1.0);
  EXPECT_DOUBLE_EQ(eval("x[1] || x[1]", s), 1.0);
}

TEST(ExprTest, AggregatesOverProcesses) {
  const test_support::Entries s = {
      {{1, "x"}, 3.0}, {{2, "x"}, 4.0}, {{5, "x"}, 5.0}, {{1, "y"}, 100.0}};
  EXPECT_DOUBLE_EQ(eval("sum(x)", s), 12.0);
  EXPECT_DOUBLE_EQ(eval("min(x)", s), 3.0);
  EXPECT_DOUBLE_EQ(eval("max(x)", s), 5.0);
  EXPECT_DOUBLE_EQ(eval("count(x)", s), 3.0);
}

TEST(ExprTest, AggregateOverNothingIsZero) {
  EXPECT_DOUBLE_EQ(eval("sum(x)"), 0.0);
}

TEST(ExprTest, ExhibitionHallPredicateShape) {
  // sum(entered) - sum(exited) > 200 — the paper's §5 predicate.
  const Predicate phi =
      parse_predicate("hall", "sum(entered) - sum(exited) > 200");
  GlobalState s = bound_state(phi, {{{1, "entered"}, 150.0},
                                    {{2, "entered"}, 60.0},
                                    {{1, "exited"}, 5.0},
                                    {{2, "exited"}, 4.0}});
  EXPECT_TRUE(phi.holds(s));  // 210 - 9 = 201 > 200
  s.set(*s.column("exited"), 2, 5.0);
  EXPECT_FALSE(phi.holds(s));  // exactly 200 is not > 200
}

TEST(ExprTest, ReadSetIsNamedVarsAndAggregatedNames) {
  // names() is φ's distinct names in first-appearance order, and each var
  // or aggregate node reads its name's slot.
  const Predicate p = parse_predicate("p", "sum(x) + y[3] * count(x) > y[1]");
  EXPECT_EQ(p.names(), (std::vector<std::string>{"x", "y"}));
  std::vector<std::pair<ProcessId, std::uint32_t>> vars;
  std::vector<std::pair<Op, std::uint32_t>> aggregates;
  for (const Predicate::Node& n : p.nodes()) {
    if (n.op == Op::kVar) vars.emplace_back(n.pid, n.slot);
    if (is_aggregate(n.op)) aggregates.emplace_back(n.op, n.slot);
  }
  EXPECT_EQ(vars, (std::vector<std::pair<ProcessId, std::uint32_t>>{
                      {3, 1}, {1, 1}}));
  EXPECT_EQ(aggregates, (std::vector<std::pair<Op, std::uint32_t>>{
                            {Op::kSum, 0}, {Op::kCount, 0}}));
  // A bound state has one column per name, in slot order; a name φ does not
  // read has none.
  const GlobalState s(p);
  EXPECT_EQ(s.column("x"), 0u);
  EXPECT_EQ(s.column("y"), 1u);
  EXPECT_EQ(s.column("z"), std::nullopt);
}

TEST(ExprTest, ToStringRoundTripShape) {
  EXPECT_EQ(parse_predicate("p", "temp[1] > 30 && occupied[2]").to_string(),
            "((temp[1] > 30) && occupied[2])");
}

TEST(ExprTest, ToStringPinsEveryNodeKind) {
  // Captured from the printer this one replaced (a binary node in
  // parentheses, a unary node as op(operand), an aggregate as op(name), a
  // variable as name[pid]), except that a constant prints as the shortest
  // text that parses back to it (std::to_chars), not with %g's six digits.
  const std::pair<const char*, const char*> table[] = {
      {"42", "42"},
      {"0.5", "0.5"},
      {"1e21", "1e+21"},
      {"1.5e-7", "1.5e-07"},
      {"123456789", "123456789"},
      {"100000", "1e+05"},
      {"1000000", "1e+06"},
      {"true", "1"},
      {"false", "0"},
      {"0.1", "0.1"},
      {"x[3]", "x[3]"},
      {"entered[0]", "entered[0]"},
      {"sum(x)", "sum(x)"},
      {"min(x)", "min(x)"},
      {"max(x)", "max(x)"},
      {"count(x)", "count(x)"},
      {"-x[1]", "-(x[1])"},
      {"!x[1]", "!(x[1])"},
      {"--5", "-(-(5))"},
      {"!!false", "!(!(0))"},
      {"-sum(x)", "-(sum(x))"},
      {"a[0] + b[1]", "(a[0] + b[1])"},
      {"a[0] - b[1]", "(a[0] - b[1])"},
      {"a[0] * b[1]", "(a[0] * b[1])"},
      {"a[0] / 4", "(a[0] / 4)"},
      {"a[0] < 1", "(a[0] < 1)"},
      {"a[0] <= 1", "(a[0] <= 1)"},
      {"a[0] > 1", "(a[0] > 1)"},
      {"a[0] >= 1", "(a[0] >= 1)"},
      {"a[0] == 1", "(a[0] == 1)"},
      {"a[0] != 1", "(a[0] != 1)"},
      {"a[0] && b[1]", "(a[0] && b[1])"},
      {"a[0] || b[1]", "(a[0] || b[1])"},
      {"a[0] - b[1] - c[2]", "((a[0] - b[1]) - c[2])"},
      {"a[0] - (b[1] - c[2])", "(a[0] - (b[1] - c[2]))"},
      {"x[1] && y[2] || !z[3]", "((x[1] && y[2]) || !(z[3]))"},
      {"sum(entered) - sum(exited) > 200",
       "((sum(entered) - sum(exited)) > 200)"},
      {"-(1 + 2) * 3", "(-((1 + 2)) * 3)"},
  };
  for (const auto& [text, printed] : table) {
    EXPECT_EQ(parse_predicate("p", text).to_string(), printed) << text;
  }
}

TEST(PredicateTest, ConjunctiveClassification) {
  // Paper §3.1.2: ψ = (x_i = 5) ∧ (y_j > 7) is conjunctive...
  EXPECT_TRUE(parse_predicate("psi", "x[1] == 5 && y[2] > 7").is_conjunctive());
  // ...while φ = x_i + y_j > 7 is relational.
  EXPECT_FALSE(parse_predicate("phi", "x[1] + y[2] > 7").is_conjunctive());
}

TEST(PredicateTest, AggregateMakesRelational) {
  EXPECT_FALSE(parse_predicate("p", "sum(x) > 1").is_conjunctive());
}

TEST(PredicateTest, MultiConjunctsSameProcessStayConjunctive) {
  const Predicate p =
      parse_predicate("p", "temp[1] > 30 && hum[1] < 40 && occ[2]");
  EXPECT_TRUE(p.is_conjunctive());
  const auto locals = p.local_conjuncts();
  EXPECT_EQ(locals.at(1).size(), 2u);
  EXPECT_EQ(locals.at(2).size(), 1u);
}

TEST(PredicateTest, LocalConjunctsRequireConjunctive) {
  const Predicate p = parse_predicate("p", "x[1] + y[2] > 7");
  EXPECT_THROW(p.local_conjuncts(), InvariantError);
}

TEST(PredicateTest, DisjunctionAcrossProcessesIsOneConjunct) {
  // (x[1] > 0 || y[2] > 0) spans two processes inside one conjunct →
  // not conjunctive.
  EXPECT_FALSE(
      parse_predicate("p", "x[1] > 0 || y[2] > 0").is_conjunctive());
}

// --- incremental aggregates (DESIGN.md §11) ---------------------------------

/// The pid-ordered fold sum/count/min/max are defined by: one pass over
/// the name's variables in pid order, which is std::map's order for a
/// fixed name.
using Reference = std::map<std::pair<std::string, ProcessId>, double>;

double reference_fold(const Reference& values, Op op, const std::string& name) {
  bool first = true;
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& [key, v] : values) {
    if (key.first != name) continue;
    switch (op) {
      case Op::kSum: acc += v; break;
      case Op::kMin: acc = first ? v : std::min(acc, v); break;
      case Op::kMax: acc = first ? v : std::max(acc, v); break;
      default: break;
    }
    first = false;
    n++;
  }
  return op == Op::kCount ? static_cast<double>(n) : acc;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-for-bit equality, except that any NaN equals any NaN.
bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return bits(a) == bits(b);
}

TEST(AggregateExactnessTest, RandomSetsMatchPidOrderedFoldBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Every aggregate of every name, each read as its own node.
  const Predicate all = parse_predicate(
      "all",
      "sum(a) + count(a) + min(a) + max(a) + sum(b) + count(b) + min(b) + "
      "max(b) + sum(c) + count(c) + min(c) + max(c)");
  for (std::uint64_t seed = 1; seed <= 24; seed++) {
    Rng rng(seed);
    const std::int64_t num_names = rng.uniform_int(2, 3);
    const std::int64_t num_pids = rng.uniform_int(1, 64);
    GlobalState s(all);
    Reference reference;
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
      const auto slot = static_cast<std::uint32_t>(
          rng.uniform_int(0, num_names - 1));
      s.set(slot, pid, v);
      reference[{all.names()[slot], pid}] = v;
      for (Predicate::NodeId id = 0; id < all.nodes().size(); id++) {
        const Predicate::Node& n = all.nodes()[id];
        if (!is_aggregate(n.op)) continue;
        const std::string& name = all.names()[n.slot];
        const double got = all.evaluate(s, id);
        const double want = reference_fold(reference, n.op, name);
        ASSERT_TRUE(same_bits(got, want))
            << "seed " << seed << " step " << step << " " << to_string(n.op)
            << "(" << name << "): got " << got << ", fold " << want;
      }
    }
  }
}

TEST(AggregateExactnessTest, OverwrittenNaNOrFractionLeavesSumExact) {
  const Predicate sum = parse_predicate("sum", "sum(x)");
  for (const double inexact :
       {std::numeric_limits<double>::quiet_NaN(), 0.1}) {
    GlobalState s(sum);
    const GlobalState::ColumnId x = *s.column("x");
    s.set(x, 1, 3.0);
    s.set(x, 2, inexact);
    s.set(x, 2, 4.0);
    EXPECT_EQ(bits(sum.evaluate(s)), bits(7.0));
    s.set(x, 1, 0x1p52);  // integral, but past the exact magnitude bound
    s.set(x, 1, 3.0);
    EXPECT_EQ(bits(sum.evaluate(s)), bits(7.0));
  }
}

TEST(AggregateExactnessTest, AllZeroStateWithNegativeZeroSumsToPositiveZero) {
  const Predicate sum = parse_predicate("sum", "sum(x)");
  const GlobalState mixed = bound_state(
      sum, {{{1, "x"}, -0.0}, {{2, "x"}, 0.0}, {{3, "x"}, -0.0}});
  EXPECT_EQ(bits(sum.evaluate(mixed)), bits(0.0));
  const GlobalState only_negative = bound_state(sum, {{{1, "x"}, -0.0}});
  EXPECT_EQ(bits(sum.evaluate(only_negative)), bits(0.0));
}

TEST(GlobalStateTest, CountsVariablesPerName) {
  const Predicate p = parse_predicate("p", "count(x) + count(y) + count(z)");
  const GlobalState s = bound_state(
      p, {{{1, "x"}, 1.0}, {{3, "x"}, 2.0}, {{1, "y"}, 3.0}});
  const GlobalState::ColumnId x = *s.column("x");
  const GlobalState::ColumnId z = *s.column("z");
  EXPECT_EQ(s.count(x), 2u);
  EXPECT_EQ(s.count(*s.column("y")), 1u);
  EXPECT_EQ(s.count(z), 0u);
  EXPECT_EQ(s.get(x, 3), 2.0);
  EXPECT_EQ(s.get(x, 2), std::nullopt);
  EXPECT_EQ(s.get(z, 1), std::nullopt);
}

TEST(GlobalStateTest, FoldIsInPidOrderWhateverTheArrivalOrder) {
  // Arrival order 7, 2, 4. 2^53 is inexact, so sum(x) folds: in pid order
  // 2^53 + 1 rounds back to 2^53 and the fold ends at 0; in arrival order
  // it would end at 1.
  const Predicate sum = parse_predicate("sum", "sum(x)");
  const GlobalState s = bound_state(
      sum, {{{7, "x"}, -0x1p53}, {{2, "x"}, 0x1p53}, {{4, "x"}, 1.0}});
  std::vector<ProcessId> visited;
  s.for_each(*s.column("x"),
             [&](ProcessId pid, double) { visited.push_back(pid); });
  EXPECT_EQ(visited, (std::vector<ProcessId>{2, 4, 7}));
  EXPECT_EQ(bits(sum.evaluate(s)), bits(0.0));
}

TEST(GlobalStateTest, ClearForgetsValuesAndKeepsColumns) {
  const Predicate p = parse_predicate("p", "sum(x) + count(x) + max(x)");
  GlobalState s = bound_state(p, {{{1, "x"}, 0.5}, {{4, "x"}, 9.0}});
  EXPECT_DOUBLE_EQ(p.evaluate(s), 9.5 + 2.0 + 9.0);
  s.clear();
  const GlobalState::ColumnId x = *s.column("x");
  EXPECT_EQ(s.count(x), 0u);
  EXPECT_EQ(s.get(x, 4), std::nullopt);
  EXPECT_EQ(bits(p.evaluate(s)), bits(0.0));
  // The inexact 0.5 left no residue: the sum is exact again.
  s.set(x, 2, 3.0);
  EXPECT_EQ(s.exact_sum(x), 3.0);
}

}  // namespace
}  // namespace psn::core
