#include "core/predicate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.hpp"

namespace psn::core {

const char* to_string(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

const char* to_string(UnaryOp op) {
  return op == UnaryOp::kNeg ? "-" : "!";
}

const char* to_string(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum: return "sum";
    case AggregateOp::kMin: return "min";
    case AggregateOp::kMax: return "max";
    case AggregateOp::kCount: return "count";
  }
  return "?";
}

namespace {

class ConstExpr final : public Expr {
 public:
  explicit ConstExpr(double v) : v_(v) {}
  double evaluate(const GlobalState&) const override { return v_; }
  void collect_vars(std::set<VarRef>&) const override {}
  void collect_aggregate_names(std::set<std::string>&) const override {}
  std::string to_string() const override {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v_);
    return buf;
  }

 private:
  double v_;
};

class VarExpr final : public Expr {
 public:
  VarExpr(ProcessId pid, std::string name) : ref_{pid, std::move(name)} {}
  double evaluate(const GlobalState& state) const override {
    return state.get(ref_).value_or(0.0);
  }
  void collect_vars(std::set<VarRef>& out) const override { out.insert(ref_); }
  void collect_aggregate_names(std::set<std::string>&) const override {}
  std::string to_string() const override { return ref_.to_string(); }

 private:
  VarRef ref_;
};

class AggregateExpr final : public Expr {
 public:
  AggregateExpr(AggregateOp op, std::string name)
      : op_(op), name_(std::move(name)) {}

  double evaluate(const GlobalState& state) const override {
    // This runs once per delivered update inside the PSN_HOT detector feed:
    // sum and count come from GlobalState's running totals in O(1); only
    // min, max, and a sum the totals cannot reproduce bit for bit fold over
    // the variables (allocation-free, in pid order).
    if (op_ == AggregateOp::kCount) {
      return static_cast<double>(state.count_named(name_));
    }
    if (op_ == AggregateOp::kSum) {
      if (const auto sum = state.exact_sum_named(name_)) return *sum;
    }
    bool first = true;
    double acc = 0.0;
    state.for_each_named(name_, [&](ProcessId, double v) {
      switch (op_) {
        case AggregateOp::kSum: acc += v; break;
        case AggregateOp::kMin: acc = first ? v : std::min(acc, v); break;
        case AggregateOp::kMax: acc = first ? v : std::max(acc, v); break;
        case AggregateOp::kCount: break;  // answered above
      }
      first = false;
    });
    return acc;
  }
  void collect_vars(std::set<VarRef>&) const override {}
  void collect_aggregate_names(std::set<std::string>& out) const override {
    out.insert(name_);
  }
  std::string to_string() const override {
    return std::string(psn::core::to_string(op_)) + "(" + name_ + ")";
  }

 private:
  AggregateOp op_;
  std::string name_;
};

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr e) : op_(op), e_(std::move(e)) {
    PSN_CHECK(e_ != nullptr, "null operand");
  }
  double evaluate(const GlobalState& state) const override {
    const double v = e_->evaluate(state);
    return op_ == UnaryOp::kNeg ? -v : (v == 0.0 ? 1.0 : 0.0);
  }
  void collect_vars(std::set<VarRef>& out) const override {
    e_->collect_vars(out);
  }
  void collect_aggregate_names(std::set<std::string>& out) const override {
    e_->collect_aggregate_names(out);
  }
  std::string to_string() const override {
    return std::string(psn::core::to_string(op_)) + "(" + e_->to_string() + ")";
  }

 private:
  UnaryOp op_;
  ExprPtr e_;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
    PSN_CHECK(lhs_ != nullptr && rhs_ != nullptr, "null operand");
  }

  double evaluate(const GlobalState& state) const override {
    const double a = lhs_->evaluate(state);
    // Short-circuit the logical operators.
    if (op_ == BinaryOp::kAnd) {
      return (a != 0.0 && rhs_->evaluate(state) != 0.0) ? 1.0 : 0.0;
    }
    if (op_ == BinaryOp::kOr) {
      return (a != 0.0 || rhs_->evaluate(state) != 0.0) ? 1.0 : 0.0;
    }
    const double b = rhs_->evaluate(state);
    switch (op_) {
      case BinaryOp::kAdd: return a + b;
      case BinaryOp::kSub: return a - b;
      case BinaryOp::kMul: return a * b;
      case BinaryOp::kDiv:
        PSN_CHECK(b != 0.0, "division by zero in predicate");
        return a / b;
      case BinaryOp::kLt: return a < b ? 1.0 : 0.0;
      case BinaryOp::kLe: return a <= b ? 1.0 : 0.0;
      case BinaryOp::kGt: return a > b ? 1.0 : 0.0;
      case BinaryOp::kGe: return a >= b ? 1.0 : 0.0;
      case BinaryOp::kEq: return a == b ? 1.0 : 0.0;
      case BinaryOp::kNe: return a != b ? 1.0 : 0.0;
      case BinaryOp::kAnd:
      case BinaryOp::kOr: break;  // handled above
    }
    return 0.0;
  }
  void collect_vars(std::set<VarRef>& out) const override {
    lhs_->collect_vars(out);
    rhs_->collect_vars(out);
  }
  void collect_aggregate_names(std::set<std::string>& out) const override {
    lhs_->collect_aggregate_names(out);
    rhs_->collect_aggregate_names(out);
  }
  std::string to_string() const override {
    // Built up via += rather than operator+ chaining: GCC 12's -Wrestrict
    // false-fires on `"(" + <rvalue string>` under -O3 (PR 105651).
    std::string out = "(";
    out += lhs_->to_string();
    out += ' ';
    out += psn::core::to_string(op_);
    out += ' ';
    out += rhs_->to_string();
    out += ')';
    return out;
  }

  BinaryOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  BinaryOp op_;
  ExprPtr lhs_, rhs_;
};

/// Collects the pids of the variables `e` names outright; returns false if
/// the expression aggregates a name (an aggregate spans all processes).
bool collect_pids(const ExprPtr& e, std::set<ProcessId>& pids) {
  std::set<std::string> names;
  e->collect_aggregate_names(names);
  if (!names.empty()) return false;
  std::set<VarRef> vars;
  e->collect_vars(vars);
  for (const VarRef& v : vars) pids.insert(v.pid);
  return true;
}

/// Flattens nested ANDs into conjuncts.
void flatten_and(const ExprPtr& e, std::vector<ExprPtr>& out) {
  if (const auto* b = dynamic_cast<const BinaryExpr*>(e.get());
      b != nullptr && b->op() == BinaryOp::kAnd) {
    flatten_and(b->lhs(), out);
    flatten_and(b->rhs(), out);
    return;
  }
  out.push_back(e);
}

}  // namespace

ExprPtr constant(double v) { return std::make_shared<ConstExpr>(v); }
ExprPtr var(ProcessId pid, const std::string& name) {
  return std::make_shared<VarExpr>(pid, name);
}
ExprPtr aggregate(AggregateOp op, const std::string& name) {
  return std::make_shared<AggregateExpr>(op, name);
}
ExprPtr unary(UnaryOp op, ExprPtr e) {
  return std::make_shared<UnaryExpr>(op, std::move(e));
}
ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}

Predicate::Predicate(std::string name, ExprPtr expr)
    : name_(std::move(name)), expr_(std::move(expr)) {
  PSN_CHECK(expr_ != nullptr, "predicate needs an expression");
}

bool Predicate::is_conjunctive() const {
  std::vector<ExprPtr> conjuncts;
  flatten_and(expr_, conjuncts);
  for (const auto& c : conjuncts) {
    std::set<ProcessId> pids;
    if (!collect_pids(c, pids)) return false;  // aggregate present
    if (pids.size() > 1) return false;         // conjunct spans processes
  }
  return true;
}

std::map<ProcessId, std::vector<ExprPtr>> Predicate::local_conjuncts() const {
  PSN_CHECK(is_conjunctive(), "predicate is not conjunctive");
  std::map<ProcessId, std::vector<ExprPtr>> out;
  std::vector<ExprPtr> conjuncts;
  flatten_and(expr_, conjuncts);
  for (const auto& c : conjuncts) {
    std::set<ProcessId> pids;
    collect_pids(c, pids);
    // A constant conjunct binds to no process; attach it to process 0 so it
    // still participates in evaluation.
    const ProcessId pid = pids.empty() ? 0 : *pids.begin();
    out[pid].push_back(c);
  }
  return out;
}

}  // namespace psn::core
