#include "core/predicate_parser.hpp"

#include <gtest/gtest.h>

#include <clocale>

#include "common/error.hpp"
#include "sim/fault.hpp"

namespace psn::core {
namespace {

GlobalState state_of(
    std::initializer_list<std::pair<VarRef, double>> entries) {
  GlobalState s;
  for (const auto& [ref, v] : entries) s.set(ref, v);
  return s;
}

TEST(ParserTest, NumbersAndArithmetic) {
  const GlobalState empty;
  EXPECT_DOUBLE_EQ(parse_expr("42")->evaluate(empty), 42.0);
  EXPECT_DOUBLE_EQ(parse_expr("2 + 3 * 4")->evaluate(empty), 14.0);
  EXPECT_DOUBLE_EQ(parse_expr("(2 + 3) * 4")->evaluate(empty), 20.0);
  EXPECT_DOUBLE_EQ(parse_expr("10 - 4 - 3")->evaluate(empty), 3.0);
  EXPECT_DOUBLE_EQ(parse_expr("8 / 2 / 2")->evaluate(empty), 2.0);
  EXPECT_DOUBLE_EQ(parse_expr("1.5e2")->evaluate(empty), 150.0);
  EXPECT_DOUBLE_EQ(parse_expr("-5 + 2")->evaluate(empty), -3.0);
}

TEST(ParserTest, Variables) {
  const auto s = state_of({{{2, "entered"}, 7.0}});
  EXPECT_DOUBLE_EQ(parse_expr("entered[2]")->evaluate(s), 7.0);
  EXPECT_DOUBLE_EQ(parse_expr("entered[2] * 2")->evaluate(s), 14.0);
}

TEST(ParserTest, Aggregates) {
  const auto s = state_of({{{1, "x"}, 2.0}, {{2, "x"}, 5.0}});
  EXPECT_DOUBLE_EQ(parse_expr("sum(x)")->evaluate(s), 7.0);
  EXPECT_DOUBLE_EQ(parse_expr("min(x)")->evaluate(s), 2.0);
  EXPECT_DOUBLE_EQ(parse_expr("max(x)")->evaluate(s), 5.0);
  EXPECT_DOUBLE_EQ(parse_expr("count(x)")->evaluate(s), 2.0);
}

TEST(ParserTest, ComparisonsAndLogic) {
  const auto s = state_of({{{1, "x"}, 5.0}, {{2, "y"}, 8.0}});
  EXPECT_TRUE(parse_expr("x[1] == 5 && y[2] > 7")->holds(s));
  EXPECT_TRUE(parse_expr("x[1] == 5 and y[2] > 7")->holds(s));
  EXPECT_FALSE(parse_expr("x[1] != 5 || y[2] <= 7")->holds(s));
  EXPECT_TRUE(parse_expr("x[1] >= 5 or false")->holds(s));
  EXPECT_TRUE(parse_expr("!(x[1] < 5)")->holds(s));
}

TEST(ParserTest, PrecedenceAndOverCmp) {
  const auto s = state_of({{{1, "x"}, 5.0}});
  // "x[1] > 4 && x[1] < 6" must parse as (x>4) && (x<6).
  EXPECT_TRUE(parse_expr("x[1] > 4 && x[1] < 6")->holds(s));
  // Or binds looser than and: "false && false || true" is true.
  EXPECT_TRUE(parse_expr("false && false || true")->holds(s));
}

TEST(ParserTest, PaperExamples) {
  // §5 exhibition hall.
  const auto hall = parse_expr("sum(entered) - sum(exited) > 200");
  auto s = state_of({{{1, "entered"}, 201.0}, {{1, "exited"}, 0.0}});
  EXPECT_TRUE(hall->holds(s));
  // §3.1 smart office.
  const auto office = parse_expr("temp[1] > 30 && occupied[2]");
  auto o = state_of({{{1, "temp"}, 31.0}, {{2, "occupied"}, 1.0}});
  EXPECT_TRUE(office->holds(o));
  // §3.1.2 relational φ = x_i + y_j > 7.
  const auto rel = parse_expr("x[1] + y[2] > 7");
  auto r = state_of({{{1, "x"}, 4.0}, {{2, "y"}, 4.0}});
  EXPECT_TRUE(rel->holds(r));
}

TEST(ParserTest, BooleansAndUnary) {
  const GlobalState empty;
  EXPECT_TRUE(parse_expr("true")->holds(empty));
  EXPECT_FALSE(parse_expr("false")->holds(empty));
  EXPECT_TRUE(parse_expr("!false")->holds(empty));
  EXPECT_DOUBLE_EQ(parse_expr("--5")->evaluate(empty), 5.0);
}

TEST(ParserTest, WhitespaceInsensitive) {
  const auto s = state_of({{{1, "x"}, 5.0}});
  EXPECT_TRUE(parse_expr("  x[ 1 ]>4  ")->holds(s));
  EXPECT_TRUE(parse_expr("x[1]>4&&x[1]<6")->holds(s));
}

TEST(ParserTest, ClassificationSurvivesParsing) {
  EXPECT_TRUE(
      parse_predicate("psi", "x[1] == 5 && y[2] > 7").is_conjunctive());
  EXPECT_FALSE(parse_predicate("phi", "x[1] + y[2] > 7").is_conjunctive());
  EXPECT_FALSE(
      parse_predicate("hall", "sum(entered) - sum(exited) > 200")
          .is_conjunctive());
}

TEST(ParserTest, RoundTripThroughToString) {
  // to_string output must re-parse to an equivalent expression.
  const char* inputs[] = {
      "sum(entered) - sum(exited) > 200",
      "temp[1] > 30 && occupied[2]",
      "x[1] + y[2] * 3 >= 7",
      "!(a[0] == 1) || b[3] < 2",
  };
  const auto s = state_of({{{0, "a"}, 1.0},
                           {{3, "b"}, 5.0},
                           {{1, "x"}, 2.0},
                           {{2, "y"}, 3.0},
                           {{1, "temp"}, 31.0},
                           {{2, "occupied"}, 1.0},
                           {{1, "entered"}, 300.0},
                           {{1, "exited"}, 10.0}});
  for (const char* text : inputs) {
    const auto once = parse_expr(text);
    const auto twice = parse_expr(once->to_string());
    EXPECT_DOUBLE_EQ(once->evaluate(s), twice->evaluate(s)) << text;
  }
}

TEST(ParserTest, ErrorsCarryPosition) {
  for (const char* bad : {"", "x[", "x[1", "x[a]", "sum(", "sum(x", "1 +",
                          "x", "((1)", "1 2", "@", "foo(x)", "1e400",
                          "x[4294967296]"}) {
    EXPECT_THROW(parse_expr(bad), ConfigError) << "input: " << bad;
  }
}

TEST(ParserTest, WordOperatorsDontEatIdentifiers) {
  // "order" must not be parsed as "or" + "der".
  const auto s = state_of({{{1, "order"}, 1.0}});
  EXPECT_TRUE(parse_expr("order[1] == 1")->holds(s));
  const auto a = state_of({{{1, "android"}, 1.0}});
  EXPECT_TRUE(parse_expr("android[1]")->holds(a));
}

// strtod honours LC_NUMERIC, so under a comma-decimal locale the fault and
// predicate grammars stopped at the '.' of "0.5" and "30.5" and rejected the
// rest. Both parse with from_chars now; this parses each with LC_NUMERIC
// forced to a comma-decimal locale when the host has one.
TEST(ParserTest, GrammarsIgnoreACommaDecimalLocale) {
  const char* comma_locales[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                                 "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR"};
  const char* active = nullptr;
  for (const char* name : comma_locales) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      active = name;
      break;
    }
  }
  if (active == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  struct RestoreC {
    ~RestoreC() { std::setlocale(LC_NUMERIC, "C"); }
  } restore;

  const sim::FaultPlan plan = sim::parse_fault_plan("crash:2@0.5+2");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].begin, SimTime::from_seconds(0.5));
  EXPECT_EQ(plan.crashes[0].end, SimTime::from_seconds(2.5));
  const ExprPtr hot = parse_expr("temp[1] > 30.5");
  EXPECT_TRUE(hot->holds(state_of({{{1, "temp"}, 30.75}})));
  EXPECT_FALSE(hot->holds(state_of({{{1, "temp"}, 30.25}})));
}

}  // namespace
}  // namespace psn::core
