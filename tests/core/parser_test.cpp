#include "core/predicate_parser.hpp"

#include <gtest/gtest.h>

#include <clocale>

#include "common/error.hpp"
#include "sim/fault.hpp"
#include "support/bound_state.hpp"

namespace psn::core {
namespace {

using test_support::bound_state;
using test_support::eval;
using test_support::holds;

TEST(ParserTest, NumbersAndArithmetic) {
  EXPECT_DOUBLE_EQ(eval("42"), 42.0);
  EXPECT_DOUBLE_EQ(eval("2 + 3 * 4"), 14.0);
  EXPECT_DOUBLE_EQ(eval("(2 + 3) * 4"), 20.0);
  EXPECT_DOUBLE_EQ(eval("10 - 4 - 3"), 3.0);
  EXPECT_DOUBLE_EQ(eval("8 / 2 / 2"), 2.0);
  EXPECT_DOUBLE_EQ(eval("1.5e2"), 150.0);
  EXPECT_DOUBLE_EQ(eval("-5 + 2"), -3.0);
}

TEST(ParserTest, Variables) {
  const test_support::Entries s = {{{2, "entered"}, 7.0}};
  EXPECT_DOUBLE_EQ(eval("entered[2]", s), 7.0);
  EXPECT_DOUBLE_EQ(eval("entered[2] * 2", s), 14.0);
}

TEST(ParserTest, Aggregates) {
  const test_support::Entries s = {{{1, "x"}, 2.0}, {{2, "x"}, 5.0}};
  EXPECT_DOUBLE_EQ(eval("sum(x)", s), 7.0);
  EXPECT_DOUBLE_EQ(eval("min(x)", s), 2.0);
  EXPECT_DOUBLE_EQ(eval("max(x)", s), 5.0);
  EXPECT_DOUBLE_EQ(eval("count(x)", s), 2.0);
}

TEST(ParserTest, ComparisonsAndLogic) {
  const test_support::Entries s = {{{1, "x"}, 5.0}, {{2, "y"}, 8.0}};
  EXPECT_TRUE(holds("x[1] == 5 && y[2] > 7", s));
  EXPECT_TRUE(holds("x[1] == 5 and y[2] > 7", s));
  EXPECT_FALSE(holds("x[1] != 5 || y[2] <= 7", s));
  EXPECT_TRUE(holds("x[1] >= 5 or false", s));
  EXPECT_TRUE(holds("!(x[1] < 5)", s));
}

TEST(ParserTest, PrecedenceAndOverCmp) {
  const test_support::Entries s = {{{1, "x"}, 5.0}};
  // "x[1] > 4 && x[1] < 6" must parse as (x>4) && (x<6).
  EXPECT_TRUE(holds("x[1] > 4 && x[1] < 6", s));
  // Or binds looser than and: "false && false || true" is true.
  EXPECT_TRUE(holds("false && false || true", s));
}

TEST(ParserTest, PaperExamples) {
  // §5 exhibition hall.
  EXPECT_TRUE(holds("sum(entered) - sum(exited) > 200",
                    {{{1, "entered"}, 201.0}, {{1, "exited"}, 0.0}}));
  // §3.1 smart office.
  EXPECT_TRUE(holds("temp[1] > 30 && occupied[2]",
                    {{{1, "temp"}, 31.0}, {{2, "occupied"}, 1.0}}));
  // §3.1.2 relational φ = x_i + y_j > 7.
  EXPECT_TRUE(holds("x[1] + y[2] > 7", {{{1, "x"}, 4.0}, {{2, "y"}, 4.0}}));
}

TEST(ParserTest, BooleansAndUnary) {
  EXPECT_TRUE(holds("true"));
  EXPECT_FALSE(holds("false"));
  EXPECT_TRUE(holds("!false"));
  EXPECT_DOUBLE_EQ(eval("--5"), 5.0);
}

TEST(ParserTest, WhitespaceInsensitive) {
  const test_support::Entries s = {{{1, "x"}, 5.0}};
  EXPECT_TRUE(holds("  x[ 1 ]>4  ", s));
  EXPECT_TRUE(holds("x[1]>4&&x[1]<6", s));
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
  const test_support::Entries s = {{{0, "a"}, 1.0},
                                   {{3, "b"}, 5.0},
                                   {{1, "x"}, 2.0},
                                   {{2, "y"}, 3.0},
                                   {{1, "temp"}, 31.0},
                                   {{2, "occupied"}, 1.0},
                                   {{1, "entered"}, 300.0},
                                   {{1, "exited"}, 10.0}};
  for (const char* text : inputs) {
    const Predicate once = parse_predicate("once", text);
    const Predicate twice = parse_predicate("twice", once.to_string());
    EXPECT_DOUBLE_EQ(once.evaluate(bound_state(once, s)),
                     twice.evaluate(bound_state(twice, s)))
        << text;
  }
}

TEST(ParserTest, ErrorsCarryPosition) {
  for (const char* bad : {"", "x[", "x[1", "x[a]", "sum(", "sum(x", "1 +",
                          "x", "((1)", "1 2", "@", "foo(x)", "1e400",
                          "x[4294967296]"}) {
    EXPECT_THROW(parse_predicate("bad", bad), ConfigError) << "input: " << bad;
  }
}

TEST(ParserTest, WordOperatorsDontEatIdentifiers) {
  // "order" must not be parsed as "or" + "der".
  const test_support::Entries s = {{{1, "order"}, 1.0}};
  EXPECT_TRUE(holds("order[1] == 1", s));
  const test_support::Entries a = {{{1, "android"}, 1.0}};
  EXPECT_TRUE(holds("android[1]", a));
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
  EXPECT_TRUE(holds("temp[1] > 30.5", {{{1, "temp"}, 30.75}}));
  EXPECT_FALSE(holds("temp[1] > 30.5", {{{1, "temp"}, 30.25}}));
}

}  // namespace
}  // namespace psn::core
