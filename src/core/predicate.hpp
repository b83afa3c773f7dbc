#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/hot.hpp"
#include "core/variables.hpp"

namespace psn::core {

/// Operators of a predicate expression over sensed variables (paper
/// §3.1.2). The op decides the node's kind: a leaf, an aggregate over one
/// name, a unary or a binary operator.
enum class Op : std::uint8_t {
  kConst, kVar,                                // leaves
  kSum, kMin, kMax, kCount,                    // aggregates over processes
  kNeg, kNot,                                  // unary
  kAdd, kSub, kMul, kDiv,                      // binary arithmetic
  kLt, kLe, kGt, kGe, kEq, kNe, kAnd, kOr,     // binary comparison, logic
};

/// The op's symbol as printed: "+", "sum", "!", ...
const char* to_string(Op op);

inline bool is_aggregate(Op op) { return op >= Op::kSum && op <= Op::kCount; }

/// A global predicate φ (paper §3.1.2). Numeric semantics: booleans are 0/1;
/// φ "holds" iff its value is non-zero. Two classes matter for detection
/// algorithms:
///   - conjunctive: φ = ∧_i φ_i with each conjunct local to one process
///     (Garg–Waldecker detection applies), and
///   - relational: any expression mixing variables of several processes,
///     e.g. the exhibition hall's  sum(entered) - sum(exited) > 200.
///
/// The expression is one vector of nodes, children before parents, so the
/// last node is the root. A var or aggregate node reads the column of its
/// name slot: a GlobalState bound to φ holds names()[i] in column i, so
/// evaluation reads columns by slot and never looks at text.
class Predicate {
 public:
  using NodeId = std::uint32_t;

  struct Node {
    Op op = Op::kConst;
    double value = 0.0;            ///< kConst
    ProcessId pid = kNoProcess;    ///< kVar
    std::uint32_t slot = 0;        ///< kVar and the aggregates: into names()
    NodeId lhs = 0, rhs = 0;       ///< unary: lhs; binary: lhs and rhs
  };

  const std::string& name() const { return name_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  NodeId root() const { return static_cast<NodeId>(nodes_.size() - 1); }
  /// The distinct attribute names φ reads, in first-appearance order.
  const std::vector<std::string>& names() const { return names_; }

  /// The value of the subexpression at `node` on `state`, which must be
  /// bound to this predicate. && and || short-circuit; a missing variable
  /// reads as 0 (a sensor that has reported nothing yet contributes
  /// nothing); division by zero fails a PSN_CHECK.
  PSN_HOT double evaluate(const GlobalState& state, NodeId node) const;
  double evaluate(const GlobalState& state) const {
    return evaluate(state, root());
  }
  bool holds(const GlobalState& state) const {
    return evaluate(state) != 0.0;
  }

  /// φ as fully parenthesised text that parse_predicate reads back.
  std::string to_string() const { return to_string(root()); }

  /// True iff the predicate is a conjunction of per-process local conjuncts
  /// (paper §3.1.2.a). Aggregates make it relational.
  bool is_conjunctive() const;
  /// The local conjuncts' nodes by process, valid when is_conjunctive().
  std::map<ProcessId, std::vector<NodeId>> local_conjuncts() const;

 private:
  friend Predicate parse_predicate(const std::string& name,
                                   std::string_view text);
  Predicate(std::string name, std::vector<Node> nodes,
            std::vector<std::string> names);

  std::string to_string(NodeId node) const;
  void flatten_and(NodeId node, std::vector<NodeId>& out) const;
  /// Adds the pids of the variables under `node` to `pids`; false if the
  /// subexpression aggregates a name (an aggregate spans all processes).
  bool collect_pids(NodeId node, std::vector<ProcessId>& pids) const;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::string> names_;
};

}  // namespace psn::core
