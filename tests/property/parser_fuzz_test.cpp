// Parser round-trip fuzzing: random predicate text, parenthesised only where
// the grammar needs it (plus some redundant pairs), is parsed and printed
// with Predicate::to_string. The printed text must re-parse, print the same
// text again, and evaluate identically on random bound states. Catches
// precedence/associativity drift between printer and parser.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/predicate_parser.hpp"

namespace psn::core {
namespace {

constexpr const char* kNames[] = {"x", "y", "temp"};

class TextGenerator {
 public:
  explicit TextGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Predicate text with at most `depth` nested operators.
  std::string generate(int depth) { return expr(depth).text; }

  /// A random value for every variable the generator names.
  std::vector<std::pair<VarRef, double>> random_values() {
    std::vector<std::pair<VarRef, double>> values;
    for (const char* name : kNames) {
      for (ProcessId pid = 0; pid < 3; ++pid) {
        values.push_back(
            {VarRef{pid, name}, std::floor(rng_.uniform(-10.0, 10.0))});
      }
    }
    return values;
  }

 private:
  /// Binding strength of a fragment's outermost operator, loosest first; a
  /// primary (leaf or parenthesised text) binds tightest.
  enum Level : int { kOr, kAnd, kCmp, kSum, kTerm, kUnary, kPrimary };

  struct Fragment {
    std::string text;
    Level level;
  };

  Fragment expr(int depth) {
    if (depth <= 0) return leaf();
    switch (rng_.uniform_int(0, 8)) {
      case 0: return leaf();
      case 1:
        return {(rng_.bernoulli(0.5) ? "-" : "!") +
                    operand(expr(depth - 1), kUnary),
                kUnary};
      case 2: {
        const char* ops[] = {"+", "-"};
        return binary(ops[rng_.uniform_int(0, 1)], kSum, depth);
      }
      case 3: return binary("*", kTerm, depth);
      case 4: {
        // Division only by a nonzero constant: a random denominator that
        // hits zero throws by design.
        const std::string lhs = operand(expr(depth - 1), kTerm);
        return {lhs + " / " + std::to_string(rng_.uniform_int(1, 9)), kTerm};
      }
      case 5: {
        const char* ops[] = {"<", "<=", ">", ">=", "==", "!="};
        return binary(ops[rng_.uniform_int(0, 5)], kCmp, depth);
      }
      case 6:
        return binary(rng_.bernoulli(0.5) ? "&&" : "and", kAnd, depth);
      case 7:
        return binary(rng_.bernoulli(0.5) ? "||" : "or", kOr, depth);
      default: return binary("-", kSum, depth);
    }
  }

  /// `lhs op rhs`. The grammar folds left, so the left operand may bind as
  /// loosely as `op` itself; the right one must bind tighter. Comparisons
  /// do not chain, so both of their operands must bind tighter.
  Fragment binary(const char* op, Level level, int depth) {
    const Level tighter = static_cast<Level>(level + 1);
    const std::string lhs =
        operand(expr(depth - 1), level == kCmp ? tighter : level);
    const std::string rhs = operand(expr(depth - 1), tighter);
    return {lhs + " " + op + " " + rhs, level};
  }

  /// The fragment's text, parenthesised when it binds looser than `need`,
  /// and now and then when it does not have to be.
  std::string operand(const Fragment& f, Level need) {
    if (f.level < need || rng_.bernoulli(0.15)) return "(" + f.text + ")";
    return f.text;
  }

  Fragment leaf() {
    const char* name = kNames[rng_.uniform_int(0, 2)];
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        return {std::to_string(rng_.uniform_int(0, 99)), kPrimary};
      case 1:
        return {std::string(name) + "[" +
                    std::to_string(rng_.uniform_int(0, 2)) + "]",
                kPrimary};
      case 2: {
        const char* ops[] = {"sum", "min", "max", "count"};
        return {std::string(ops[rng_.uniform_int(0, 3)]) + "(" + name + ")",
                kPrimary};
      }
      case 3: return {rng_.bernoulli(0.5) ? "0.5" : "2.25", kPrimary};
      default: return {rng_.bernoulli(0.5) ? "true" : "false", kPrimary};
    }
  }

  Rng rng_;
};

double evaluate_on(const Predicate& p,
                   const std::vector<std::pair<VarRef, double>>& values) {
  GlobalState state(p);
  for (const auto& [ref, v] : values) {
    if (const auto column = state.column(ref.name)) {
      state.set(*column, ref.pid, v);
    }
  }
  return p.evaluate(state);
}

class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, PrintParseRoundTripPreservesSemantics) {
  TextGenerator gen(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const std::string text = gen.generate(4);
    std::optional<Predicate> parsed;
    ASSERT_NO_THROW(parsed = parse_predicate("a", text)) << text;
    const std::string printed = parsed->to_string();
    std::optional<Predicate> reparsed;
    ASSERT_NO_THROW(reparsed = parse_predicate("b", printed)) << printed;
    // Printing is a fixed point after one round trip.
    EXPECT_EQ(reparsed->to_string(), printed) << text;
    for (int probe = 0; probe < 5; ++probe) {
      const auto values = gen.random_values();
      EXPECT_EQ(evaluate_on(*parsed, values), evaluate_on(*reparsed, values))
          << "round-trip diverged for: " << text << " printed " << printed;
    }
  }
}

TEST_P(ParserFuzzTest, ClassificationStableUnderRoundTrip) {
  TextGenerator gen(GetParam() + 5000);
  for (int trial = 0; trial < 30; ++trial) {
    const std::string text = gen.generate(3);
    const Predicate p1 = parse_predicate("a", text);
    const Predicate p2 = parse_predicate("b", p1.to_string());
    ASSERT_EQ(p1.is_conjunctive(), p2.is_conjunctive()) << text;
    if (!p1.is_conjunctive()) continue;
    const auto c1 = p1.local_conjuncts();
    const auto c2 = p2.local_conjuncts();
    ASSERT_EQ(c1.size(), c2.size()) << text;
    for (const auto& [pid, nodes] : c1) {
      EXPECT_EQ(nodes.size(), c2.at(pid).size()) << text;
    }
  }
}

// A constant of up to 17 significant digits (as many as a double holds)
// must print as text that parses back to the same double.
TEST_P(ParserFuzzTest, ConstantsSurviveTheirOwnPrintout) {
  Rng rng(GetParam() + 9000);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t digits = rng.uniform_int(1, 17);
    std::string text(1, static_cast<char>('1' + rng.uniform_int(0, 8)));
    if (digits > 1 && rng.bernoulli(0.5)) text += '.';
    for (std::int64_t i = 1; i < digits; ++i) {
      text += static_cast<char>('0' + rng.uniform_int(0, 9));
    }
    text += 'e';
    text += std::to_string(rng.uniform_int(-30, 30));
    const Predicate p = parse_predicate("a", text);
    const std::string printed = p.to_string();
    const Predicate reparsed = parse_predicate("b", printed);
    EXPECT_EQ(reparsed.to_string(), printed) << text;
    EXPECT_EQ(evaluate_on(p, {}), evaluate_on(reparsed, {}))
        << text << " printed " << printed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace psn::core
