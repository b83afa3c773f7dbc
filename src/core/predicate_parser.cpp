#include "core/predicate_parser.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace psn::core {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Parses the whole text; returns φ's nodes (root last) and the names
  /// they read, in first-appearance order.
  std::pair<std::vector<Predicate::Node>, std::vector<std::string>> parse() && {
    parse_or();
    skip_ws();
    if (pos_ != text_.size()) fail("unexpected trailing input");
    return {std::move(nodes_), std::move(names_)};
  }

 private:
  using NodeId = Predicate::NodeId;

  NodeId add(Predicate::Node node) {
    nodes_.push_back(node);
    return static_cast<NodeId>(nodes_.size() - 1);
  }
  NodeId add_constant(double v) { return add({.op = Op::kConst, .value = v}); }
  NodeId add_unary(Op op, NodeId e) { return add({.op = op, .lhs = e}); }
  NodeId add_binary(Op op, NodeId lhs, NodeId rhs) {
    return add({.op = op, .lhs = lhs, .rhs = rhs});
  }
  /// A var (pid given) or aggregate node reading `name`'s slot.
  NodeId add_read(Op op, std::string_view name, ProcessId pid = kNoProcess) {
    auto it = std::find(names_.begin(), names_.end(), name);
    if (it == names_.end()) it = names_.emplace(names_.end(), name);
    const auto slot = static_cast<std::uint32_t>(it - names_.begin());
    return add({.op = op, .pid = pid, .slot = slot});
  }

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

  NodeId parse_or() {
    NodeId lhs = parse_and();
    for (;;) {
      if (eat("||") || eat("or")) {
        lhs = add_binary(Op::kOr, lhs, parse_and());
      } else {
        return lhs;
      }
    }
  }

  NodeId parse_and() {
    NodeId lhs = parse_cmp();
    for (;;) {
      if (eat("&&") || eat("and")) {
        lhs = add_binary(Op::kAnd, lhs, parse_cmp());
      } else {
        return lhs;
      }
    }
  }

  NodeId parse_cmp() {
    NodeId lhs = parse_sum();
    // Order matters: match two-character operators first.
    if (eat("<=")) return add_binary(Op::kLe, lhs, parse_sum());
    if (eat(">=")) return add_binary(Op::kGe, lhs, parse_sum());
    if (eat("==")) return add_binary(Op::kEq, lhs, parse_sum());
    if (eat("!=")) return add_binary(Op::kNe, lhs, parse_sum());
    if (eat("<")) return add_binary(Op::kLt, lhs, parse_sum());
    if (eat(">")) return add_binary(Op::kGt, lhs, parse_sum());
    return lhs;
  }

  NodeId parse_sum() {
    NodeId lhs = parse_term();
    for (;;) {
      if (eat("+")) {
        lhs = add_binary(Op::kAdd, lhs, parse_term());
      } else {
        skip_ws();
        // "-" only as a binary op here; unary minus is handled in factor.
        if (peek() == '-') {
          pos_++;
          lhs = add_binary(Op::kSub, lhs, parse_term());
        } else {
          return lhs;
        }
      }
    }
  }

  NodeId parse_term() {
    NodeId lhs = parse_factor();
    for (;;) {
      if (eat("*")) {
        lhs = add_binary(Op::kMul, lhs, parse_factor());
      } else if (eat("/")) {
        lhs = add_binary(Op::kDiv, lhs, parse_factor());
      } else {
        return lhs;
      }
    }
  }

  NodeId parse_factor() {
    skip_ws();
    if (eat("-")) return add_unary(Op::kNeg, parse_factor());
    if (eat("!")) return add_unary(Op::kNot, parse_factor());
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

  NodeId parse_primary() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");

    if (eat("(")) {
      const NodeId e = parse_or();
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
    if (ident == "true") return add_constant(1.0);
    if (ident == "false") return add_constant(0.0);

    skip_ws();
    if (peek() == '(') {
      pos_++;
      const std::string attr = parse_ident();
      if (!eat(")")) fail("expected ')' after aggregate argument");
      if (ident == "sum") return add_read(Op::kSum, attr);
      if (ident == "min") return add_read(Op::kMin, attr);
      if (ident == "max") return add_read(Op::kMax, attr);
      if (ident == "count") return add_read(Op::kCount, attr);
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
      return add_read(Op::kVar, ident, pid);
    }
    fail("variable '" + ident +
         "' needs a process subscript like '" + ident +
         "[0]' or an aggregate like 'sum(" + ident + ")'");
  }

  NodeId parse_number() {
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
    return add_constant(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<Predicate::Node> nodes_;
  std::vector<std::string> names_;
};

}  // namespace

Predicate parse_predicate(const std::string& name, std::string_view text) {
  auto [nodes, names] = Parser(text).parse();
  return Predicate(name, std::move(nodes), std::move(names));
}

}  // namespace psn::core
