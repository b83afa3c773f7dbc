#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/variables.hpp"

namespace psn::core {

/// Expression AST for global predicates φ over sensed variables (paper
/// §3.1.2). Numeric semantics: booleans are 0/1; a predicate "holds" iff its
/// value is non-zero. Two classes matter for detection algorithms:
///   - conjunctive: φ = ∧_i φ_i with each conjunct local to one process
///     (Garg–Waldecker detection applies), and
///   - relational: any expression mixing variables of several processes,
///     e.g. the exhibition hall's  sum(entered) - sum(exited) > 200.
class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kAnd, kOr,
};

enum class UnaryOp { kNeg, kNot };

enum class AggregateOp { kSum, kMin, kMax, kCount };

const char* to_string(BinaryOp op);
const char* to_string(UnaryOp op);
const char* to_string(AggregateOp op);

class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluates against an assembled global state. Missing variables evaluate
  /// as 0 (a sensor that has reported nothing yet contributes nothing).
  virtual double evaluate(const GlobalState& state) const = 0;
  /// The read set, a fixed property of the expression: a variable is read
  /// iff the expression names it outright (collect_vars) or aggregates its
  /// name (collect_aggregate_names: sum(x) reads every x[i]).
  virtual void collect_vars(std::set<VarRef>& out) const = 0;
  virtual void collect_aggregate_names(std::set<std::string>& out) const = 0;
  virtual std::string to_string() const = 0;

  bool holds(const GlobalState& state) const { return evaluate(state) != 0.0; }
};

ExprPtr constant(double v);
ExprPtr var(ProcessId pid, const std::string& name);
ExprPtr aggregate(AggregateOp op, const std::string& name);
ExprPtr unary(UnaryOp op, ExprPtr e);
ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);

/// A named global predicate with classification helpers.
class Predicate {
 public:
  Predicate(std::string name, ExprPtr expr);

  const std::string& name() const { return name_; }
  const ExprPtr& expr() const { return expr_; }
  bool holds(const GlobalState& state) const { return expr_->holds(state); }
  double evaluate(const GlobalState& state) const {
    return expr_->evaluate(state);
  }

  /// True iff the predicate is a conjunction of per-process local conjuncts
  /// (paper §3.1.2.a). Aggregates make it relational.
  bool is_conjunctive() const;
  /// The local conjuncts by process, valid when is_conjunctive().
  std::map<ProcessId, std::vector<ExprPtr>> local_conjuncts() const;

 private:
  std::string name_;
  ExprPtr expr_;
};

}  // namespace psn::core
