#include "core/lattice.hpp"

#include <gtest/gtest.h>

#include "core/predicate_parser.hpp"

namespace psn::core {
namespace {

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

/// Builds an ExecutionView by hand: per process, a list of (stamp, var=value)
/// events.
struct ViewBuilder {
  explicit ViewBuilder(std::vector<ProcessId> pids)
      : pids_(std::move(pids)), events_(pids_.size()) {}

  ViewBuilder& event(std::size_t process, std::vector<std::uint64_t> stamp,
                     const std::string& var, double value,
                     std::int64_t ms = 0) {
    ExecutionView::Event e;
    e.stamp = clocks::VectorStamp(std::move(stamp));
    e.var = VarRef{pids_[process], var};
    e.value = value;
    e.when = t(ms);
    events_[process].push_back(std::move(e));
    return *this;
  }

  ExecutionView build() { return ExecutionView(pids_, events_); }

  std::vector<ProcessId> pids_;
  std::vector<std::vector<ExecutionView::Event>> events_;
};

// Stamps below use dimension 3: index 0 is the root (never ticks), indices
// 1, 2 are the two sensors — matching how the system numbers processes.

TEST(LatticeCountTest, IndependentProcessesGiveFullProduct) {
  // No process ever hears of the other: all (a+1)(b+1) cuts are consistent.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);
  b.event(0, {0, 2, 0}, "x", 2.0);
  b.event(1, {0, 0, 1}, "y", 1.0);
  b.event(1, {0, 0, 2}, "y", 2.0);
  const auto view = b.build();
  const auto stats = lattice::count_consistent_cuts(view);
  EXPECT_EQ(stats.consistent_cuts, 9u);
  EXPECT_DOUBLE_EQ(lattice::unconstrained_cuts(view), 9.0);
  EXPECT_FALSE(stats.linear);
  EXPECT_FALSE(stats.truncated);
}

TEST(LatticeCountTest, FullKnowledgeCollapsesToChain) {
  // Each event knows all prior events everywhere (Δ = 0 with strobes at every
  // event): the lattice is a chain of total_events + 1 cuts — the paper's
  // §4.2.4 linear collapse.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);   // e1 at P1
  b.event(1, {0, 1, 1}, "y", 1.0);   // e2 at P2 knows e1
  b.event(0, {0, 2, 1}, "x", 2.0);   // e3 at P1 knows e2
  b.event(1, {0, 2, 2}, "y", 2.0);   // e4 at P2 knows e3
  const auto stats = lattice::count_consistent_cuts(b.build());
  EXPECT_EQ(stats.consistent_cuts, 5u);
  EXPECT_TRUE(stats.linear);
}

TEST(LatticeCountTest, PartialKnowledgePrunes) {
  // P2's event knows P1's first event only: cut (0,1) is inconsistent.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);
  b.event(0, {0, 2, 0}, "x", 2.0);
  b.event(1, {0, 1, 1}, "y", 1.0);  // knows P1's first event
  const auto stats = lattice::count_consistent_cuts(b.build());
  // Unconstrained: 3 * 2 = 6. Cut {P1:0, P2:1} is inconsistent → 5.
  EXPECT_EQ(stats.consistent_cuts, 5u);
}

TEST(LatticeCountTest, EmptyExecution) {
  ViewBuilder b({1, 2});
  const auto stats = lattice::count_consistent_cuts(b.build());
  EXPECT_EQ(stats.consistent_cuts, 1u);  // just the empty cut
  EXPECT_EQ(stats.total_events, 0u);
}

TEST(LatticeCountTest, CapTruncates) {
  ViewBuilder b({1, 2});
  for (int i = 1; i <= 6; ++i) {
    b.event(0, {0, static_cast<std::uint64_t>(i), 0}, "x", i);
    b.event(1, {0, 0, static_cast<std::uint64_t>(i)}, "y", i);
  }
  const auto stats = lattice::count_consistent_cuts(b.build(), /*cap=*/10);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(stats.consistent_cuts, 10u);
}

TEST(PossiblyDefinitelyTest, ClassicDiagonalExample) {
  // The textbook case: x and y each step 0→1 concurrently. Possibly(x==1 &&
  // y==0) holds (one interleaving passes through it) but Definitely does not.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);
  b.event(1, {0, 0, 1}, "y", 1.0);
  const auto view = b.build();

  const auto p_mixed = parse_predicate("m", "x[1] == 1 && y[2] == 0");
  EXPECT_TRUE(lattice::possibly(view, p_mixed));
  EXPECT_FALSE(lattice::definitely(view, p_mixed));

  // Both-one holds at the final cut of every path → Definitely... no:
  // Definitely requires passing through it on every path; the final cut is on
  // every path, so it is Definitely.
  const auto p_both = parse_predicate("b", "x[1] == 1 && y[2] == 1");
  EXPECT_TRUE(lattice::possibly(view, p_both));
  EXPECT_TRUE(lattice::definitely(view, p_both));
}

TEST(PossiblyDefinitelyTest, OrderedExecutionMakesMixedDefinite) {
  // If y's step causally follows x's step, every path passes through
  // (x=1, y=0) → Definitely.
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);
  b.event(1, {0, 1, 1}, "y", 1.0);  // knows x's event
  const auto view = b.build();
  const auto p_mixed = parse_predicate("m", "x[1] == 1 && y[2] == 0");
  EXPECT_TRUE(lattice::definitely(view, p_mixed));
}

TEST(PossiblyDefinitelyTest, ImpossiblePredicate) {
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);
  const auto view = b.build();
  const auto p = parse_predicate("p", "x[1] == 99");
  EXPECT_FALSE(lattice::possibly(view, p));
  EXPECT_FALSE(lattice::definitely(view, p));
}

TEST(PossiblyDefinitelyTest, TrueAtBottomIsDefinitely) {
  ViewBuilder b({1});
  b.event(0, {0, 1}, "x", 5.0);
  const auto view = b.build();
  // x==0 holds at the empty cut (unreported = 0), which is on every path.
  const auto p = parse_predicate("p", "x[1] == 0");
  EXPECT_TRUE(lattice::possibly(view, p));
  EXPECT_TRUE(lattice::definitely(view, p));
}

TEST(PossiblyWitnessTest, WitnessSatisfiesPredicate) {
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);
  b.event(1, {0, 0, 1}, "y", 1.0);
  const auto view = b.build();
  const auto p = parse_predicate("m", "x[1] == 1 && y[2] == 0");
  const auto witness = lattice::possibly_witness(view, p);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(view.consistent(*witness));
  EXPECT_TRUE(p.holds(view.state_at(*witness)));
  EXPECT_EQ(*witness, (std::vector<std::size_t>{1, 0}));
}

TEST(ExecutionViewTest, ConsistencyRule) {
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);
  b.event(1, {0, 1, 1}, "y", 1.0);  // knows P1's event
  const auto view = b.build();
  EXPECT_TRUE(view.consistent({0, 0}));
  EXPECT_TRUE(view.consistent({1, 0}));
  EXPECT_FALSE(view.consistent({0, 1}));  // includes effect without cause
  EXPECT_TRUE(view.consistent({1, 1}));
}

TEST(ExecutionViewTest, StateAtUsesLatestValues) {
  ViewBuilder b({1});
  b.event(0, {0, 1}, "x", 1.0);
  b.event(0, {0, 2}, "x", 7.0);
  const auto view = b.build();
  EXPECT_FALSE(view.state_at({0}).get(VarRef{1, "x"}).has_value());
  EXPECT_DOUBLE_EQ(*view.state_at({1}).get(VarRef{1, "x"}), 1.0);
  EXPECT_DOUBLE_EQ(*view.state_at({2}).get(VarRef{1, "x"}), 7.0);
}

TEST(ExecutionViewTest, FinalCutAndTotals) {
  ViewBuilder b({1, 2});
  b.event(0, {0, 1, 0}, "x", 1.0);
  b.event(1, {0, 0, 1}, "y", 1.0);
  b.event(1, {0, 0, 2}, "y", 2.0);
  const auto view = b.build();
  EXPECT_EQ(view.final_cut(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(view.total_events(), 3u);
}

}  // namespace
}  // namespace psn::core
