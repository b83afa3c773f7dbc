#include "core/predicate.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/error.hpp"

namespace psn::core {

const char* to_string(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kVar: return "var";
    case Op::kSum: return "sum";
    case Op::kMin: return "min";
    case Op::kMax: return "max";
    case Op::kCount: return "count";
    case Op::kNeg: return "-";
    case Op::kNot: return "!";
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kMul: return "*";
    case Op::kDiv: return "/";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kEq: return "==";
    case Op::kNe: return "!=";
    case Op::kAnd: return "&&";
    case Op::kOr: return "||";
  }
  return "?";
}

GlobalState::GlobalState(const Predicate& predicate) {
  for (const std::string& name : predicate.names()) {
    columns_.emplace_back().name = Name(name);
  }
}

Predicate::Predicate(std::string name, std::vector<Node> nodes,
                     std::vector<std::string> names)
    : name_(std::move(name)),
      nodes_(std::move(nodes)),
      names_(std::move(names)) {
  PSN_CHECK(!nodes_.empty(), "predicate needs an expression");
}

PSN_HOT double Predicate::evaluate(const GlobalState& state,
                                   NodeId node) const {
  // This runs once per delivered update inside the PSN_HOT detector feed:
  // sum and count come from GlobalState's running totals in O(1); only
  // min, max, and a sum the totals cannot reproduce bit for bit fold over
  // the column (allocation-free, in pid order).
  const Node& n = nodes_[node];
  const auto fold = [&] {
    bool first = true;
    double acc = 0.0;
    state.for_each(n.slot, [&](ProcessId, double v) {
      if (n.op == Op::kSum) {
        acc += v;
      } else if (first) {
        acc = v;
      } else {
        acc = n.op == Op::kMin ? std::min(acc, v) : std::max(acc, v);
      }
      first = false;
    });
    return acc;
  };
  const auto lhs = [&] { return evaluate(state, n.lhs); };
  const auto rhs = [&] { return evaluate(state, n.rhs); };
  const auto truth = [](bool b) { return b ? 1.0 : 0.0; };
  switch (n.op) {
    case Op::kConst: return n.value;
    case Op::kVar: return state.get(n.slot, n.pid).value_or(0.0);
    case Op::kCount: return static_cast<double>(state.count(n.slot));
    case Op::kSum:
      if (const auto sum = state.exact_sum(n.slot)) return *sum;
      return fold();
    case Op::kMin:
    case Op::kMax: return fold();
    case Op::kNeg: return -lhs();
    case Op::kNot: return truth(lhs() == 0.0);
    case Op::kAdd: return lhs() + rhs();
    case Op::kSub: return lhs() - rhs();
    case Op::kMul: return lhs() * rhs();
    case Op::kDiv: {
      const double a = lhs();
      const double b = rhs();
      PSN_CHECK(b != 0.0, "division by zero in predicate");
      return a / b;
    }
    case Op::kLt: return truth(lhs() < rhs());
    case Op::kLe: return truth(lhs() <= rhs());
    case Op::kGt: return truth(lhs() > rhs());
    case Op::kGe: return truth(lhs() >= rhs());
    case Op::kEq: return truth(lhs() == rhs());
    case Op::kNe: return truth(lhs() != rhs());
    case Op::kAnd: return truth(lhs() != 0.0 && rhs() != 0.0);
    case Op::kOr: return truth(lhs() != 0.0 || rhs() != 0.0);
  }
  return 0.0;
}

std::string Predicate::to_string(NodeId node) const {
  const Node& n = nodes_[node];
  std::string out;
  if (is_aggregate(n.op)) {
    out = core::to_string(n.op);
    out += '(';
    out += names_[n.slot];
    out += ')';
    return out;
  }
  switch (n.op) {
    case Op::kConst: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", n.value);
      return buf;
    }
    case Op::kVar:
      out = names_[n.slot];
      out += '[';
      out += std::to_string(n.pid);
      out += ']';
      return out;
    case Op::kNeg:
    case Op::kNot:
      out = core::to_string(n.op);
      out += '(';
      out += to_string(n.lhs);
      out += ')';
      return out;
    default:
      // Built up via += rather than operator+ chaining: GCC 12's -Wrestrict
      // false-fires on `"(" + <rvalue string>` under -O3 (PR 105651).
      out = "(";
      out += to_string(n.lhs);
      out += ' ';
      out += core::to_string(n.op);
      out += ' ';
      out += to_string(n.rhs);
      out += ')';
      return out;
  }
}

void Predicate::flatten_and(NodeId node, std::vector<NodeId>& out) const {
  const Node& n = nodes_[node];
  if (n.op == Op::kAnd) {
    flatten_and(n.lhs, out);
    flatten_and(n.rhs, out);
    return;
  }
  out.push_back(node);
}

bool Predicate::collect_pids(NodeId node, std::vector<ProcessId>& pids) const {
  const Node& n = nodes_[node];
  if (is_aggregate(n.op)) return false;
  switch (n.op) {
    case Op::kConst: return true;
    case Op::kVar:
      if (std::find(pids.begin(), pids.end(), n.pid) == pids.end()) {
        pids.push_back(n.pid);
      }
      return true;
    case Op::kNeg:
    case Op::kNot: return collect_pids(n.lhs, pids);
    default: return collect_pids(n.lhs, pids) && collect_pids(n.rhs, pids);
  }
}

bool Predicate::is_conjunctive() const {
  std::vector<NodeId> conjuncts;
  flatten_and(root(), conjuncts);
  for (const NodeId c : conjuncts) {
    std::vector<ProcessId> pids;
    if (!collect_pids(c, pids)) return false;  // aggregate present
    if (pids.size() > 1) return false;         // conjunct spans processes
  }
  return true;
}

std::map<ProcessId, std::vector<Predicate::NodeId>> Predicate::local_conjuncts()
    const {
  PSN_CHECK(is_conjunctive(), "predicate is not conjunctive");
  std::map<ProcessId, std::vector<NodeId>> out;
  std::vector<NodeId> conjuncts;
  flatten_and(root(), conjuncts);
  for (const NodeId c : conjuncts) {
    std::vector<ProcessId> pids;
    collect_pids(c, pids);
    // A constant conjunct binds to no process; attach it to process 0 so it
    // still participates in evaluation.
    out[pids.empty() ? 0 : pids.front()].push_back(c);
  }
  return out;
}

}  // namespace psn::core
