#include "core/predicate_parser.hpp"

#include <cctype>
#include <charconv>
#include <string>

#include "common/error.hpp"

namespace psn::core {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ExprPtr parse() {
    ExprPtr e = parse_or();
    skip_ws();
    if (pos_ != text_.size()) fail("unexpected trailing input");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError("predicate parse error at offset " +
                      std::to_string(pos_) + ": " + why + " in \"" +
                      std::string(text_) + "\"");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
  }

  bool eat(std::string_view tok) {
    skip_ws();
    if (text_.substr(pos_).starts_with(tok)) {
      // Word tokens must not merge with a following identifier character
      // ("or" must not match the prefix of "order").
      if (std::isalpha(static_cast<unsigned char>(tok[0]))) {
        const std::size_t end = pos_ + tok.size();
        if (end < text_.size() &&
            (std::isalnum(static_cast<unsigned char>(text_[end])) ||
             text_[end] == '_')) {
          return false;
        }
      }
      pos_ += tok.size();
      return true;
    }
    return false;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    for (;;) {
      if (eat("||") || eat("or")) {
        lhs = binary(BinaryOp::kOr, lhs, parse_and());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_cmp();
    for (;;) {
      if (eat("&&") || eat("and")) {
        lhs = binary(BinaryOp::kAnd, lhs, parse_cmp());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_sum();
    // Order matters: match two-character operators first.
    if (eat("<=")) return binary(BinaryOp::kLe, lhs, parse_sum());
    if (eat(">=")) return binary(BinaryOp::kGe, lhs, parse_sum());
    if (eat("==")) return binary(BinaryOp::kEq, lhs, parse_sum());
    if (eat("!=")) return binary(BinaryOp::kNe, lhs, parse_sum());
    if (eat("<")) return binary(BinaryOp::kLt, lhs, parse_sum());
    if (eat(">")) return binary(BinaryOp::kGt, lhs, parse_sum());
    return lhs;
  }

  ExprPtr parse_sum() {
    ExprPtr lhs = parse_term();
    for (;;) {
      if (eat("+")) {
        lhs = binary(BinaryOp::kAdd, lhs, parse_term());
      } else {
        skip_ws();
        // "-" only as a binary op here; unary minus is handled in factor.
        if (peek() == '-') {
          pos_++;
          lhs = binary(BinaryOp::kSub, lhs, parse_term());
        } else {
          return lhs;
        }
      }
    }
  }

  ExprPtr parse_term() {
    ExprPtr lhs = parse_factor();
    for (;;) {
      if (eat("*")) {
        lhs = binary(BinaryOp::kMul, lhs, parse_factor());
      } else if (eat("/")) {
        lhs = binary(BinaryOp::kDiv, lhs, parse_factor());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_factor() {
    skip_ws();
    if (eat("-")) return unary(UnaryOp::kNeg, parse_factor());
    if (eat("!")) return unary(UnaryOp::kNot, parse_factor());
    return parse_primary();
  }

  std::string parse_ident() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      pos_++;
    }
    if (pos_ == start) fail("expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  ExprPtr parse_primary() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");

    if (eat("(")) {
      ExprPtr e = parse_or();
      if (!eat(")")) fail("expected ')'");
      return e;
    }

    const char c = peek();
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      return parse_number();
    }
    if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') {
      fail("expected number, identifier, or '('");
    }

    const std::string ident = parse_ident();
    if (ident == "true") return constant(1.0);
    if (ident == "false") return constant(0.0);

    skip_ws();
    if (peek() == '(') {
      pos_++;
      const std::string attr = parse_ident();
      if (!eat(")")) fail("expected ')' after aggregate argument");
      if (ident == "sum") return aggregate(AggregateOp::kSum, attr);
      if (ident == "min") return aggregate(AggregateOp::kMin, attr);
      if (ident == "max") return aggregate(AggregateOp::kMax, attr);
      if (ident == "count") return aggregate(AggregateOp::kCount, attr);
      fail("unknown aggregate '" + ident + "' (want sum/min/max/count)");
    }
    if (peek() == '[') {
      pos_++;
      skip_ws();
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        pos_++;
      }
      if (pos_ == start) fail("expected process id in '[...]'");
      ProcessId pid = 0;
      if (std::from_chars(text_.data() + start, text_.data() + pos_, pid).ec !=
          std::errc()) {
        fail("process id out of range in '[...]'");
      }
      if (!eat("]")) fail("expected ']'");
      return var(pid, ident);
    }
    fail("variable '" + ident +
         "' needs a process subscript like '" + ident +
         "[0]' or an aggregate like 'sum(" + ident + ")'");
  }

  ExprPtr parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      pos_++;
    }
    // from_chars, not strtod: the grammar's decimal point is '.' under any
    // LC_NUMERIC.
    const std::string_view num = text_.substr(start, pos_ - start);
    const char* last = num.data() + num.size();
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(num.data(), last, v);
    if (ec != std::errc() || ptr != last) {
      fail("bad number '" + std::string(num) + "'");
    }
    return constant(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

ExprPtr parse_expr(std::string_view text) { return Parser(text).parse(); }

Predicate parse_predicate(const std::string& name, std::string_view text) {
  return Predicate(name, parse_expr(text));
}

}  // namespace psn::core
