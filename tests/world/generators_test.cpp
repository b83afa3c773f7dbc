#include "world/generators.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace psn::world {
namespace {

using namespace psn::time_literals;

TEST(PoissonArrivalsTest, MeanGapMatchesRate) {
  PoissonArrivals p(20.0);
  Rng rng(1);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(p.next_gap(rng).to_seconds());
  EXPECT_NEAR(s.mean(), 0.05, 0.002);
}

TEST(PoissonArrivalsTest, RejectsNonPositiveRate) {
  EXPECT_THROW(PoissonArrivals(0.0), InvariantError);
  EXPECT_THROW(PoissonArrivals(-1.0), InvariantError);
}

TEST(PeriodicArrivalsTest, ExactWithoutJitter) {
  PeriodicArrivals p(100_ms);
  Rng rng(2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.next_gap(rng), 100_ms);
}

TEST(PeriodicArrivalsTest, JitterBounded) {
  PeriodicArrivals p(100_ms, 20_ms);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const Duration g = p.next_gap(rng);
    EXPECT_GE(g, 80_ms);
    EXPECT_LE(g, 120_ms);
  }
}

TEST(PeriodicArrivalsTest, Validation) {
  EXPECT_THROW(PeriodicArrivals(Duration::zero()), InvariantError);
  EXPECT_THROW(PeriodicArrivals(10_ms, 10_ms), InvariantError);
}

TEST(BurstyArrivalsTest, MeanRateBetweenRegimes) {
  BurstyArrivals b(1.0, 100.0, 1_s, 1_s);
  Rng rng(4);
  // Count events over simulated time via accumulated gaps.
  Duration total = Duration::zero();
  std::size_t events = 0;
  while (total < Duration::seconds(200)) {
    total += b.next_gap(rng);
    events++;
  }
  const double rate = static_cast<double>(events) / total.to_seconds();
  EXPECT_GT(rate, 10.0);   // far above the quiet regime
  EXPECT_LT(rate, 100.0);  // below the pure burst regime
}

TEST(BurstyArrivalsTest, Validation) {
  EXPECT_THROW(BurstyArrivals(0.0, 1.0, 1_s, 1_s), InvariantError);
  EXPECT_THROW(BurstyArrivals(1.0, 1.0, Duration::zero(), 1_s),
               InvariantError);
}

TEST(CounterValueTest, IncrementsFromCurrent) {
  CounterValue c(2);
  Rng rng(5);
  EXPECT_EQ(c.next(AttributeValue(std::int64_t{10}), rng).as_int(), 12);
  // Non-integer current resets to the step.
  EXPECT_EQ(c.next(AttributeValue(true), rng).as_int(), 2);
}

TEST(ToggleValueTest, Flips) {
  ToggleValue t;
  Rng rng(6);
  EXPECT_TRUE(t.next(AttributeValue(false), rng).as_bool());
  EXPECT_FALSE(t.next(AttributeValue(true), rng).as_bool());
  // Non-bool current becomes true.
  EXPECT_TRUE(t.next(AttributeValue(std::int64_t{3}), rng).as_bool());
}

TEST(RandomWalkValueTest, StaysWithinBoundsAndStep) {
  RandomWalkValue w(1.0, 0.0, 10.0);
  Rng rng(7);
  AttributeValue cur(5.0);
  for (int i = 0; i < 5000; ++i) {
    const AttributeValue next = w.next(cur, rng);
    EXPECT_GE(next.as_double(), 0.0);
    EXPECT_LE(next.as_double(), 10.0);
    EXPECT_LE(std::abs(next.as_double() - cur.numeric()), 1.0 + 1e-12);
    cur = next;
  }
}

TEST(RandomWalkValueTest, Validation) {
  EXPECT_THROW(RandomWalkValue(0.0, 0.0, 1.0), InvariantError);
  EXPECT_THROW(RandomWalkValue(1.0, 2.0, 1.0), InvariantError);
}

TEST(ChoiceValueTest, DrawsFromSet) {
  ChoiceValue c({10, 20, 30});
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const auto v = c.next(AttributeValue(), rng).as_int();
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
  EXPECT_THROW(ChoiceValue({}), InvariantError);
}

TEST(AttributeDriverTest, EmitsUntilHorizon) {
  sim::SimConfig cfg;
  cfg.horizon = SimTime::zero() + 10_s;
  sim::Simulation sim(cfg);
  WorldModel world(sim);
  const ObjectId obj = world.create_object("o");
  world.object(obj).set_attribute("count", std::int64_t{0});

  AttributeDriver driver(world, obj, "count",
                         std::make_unique<PeriodicArrivals>(1_s),
                         std::make_unique<CounterValue>(), Rng(9));
  driver.start();
  sim.run();
  EXPECT_EQ(world.object(obj).attribute("count").as_int(), 10);
  EXPECT_EQ(world.timeline().size(), 10u);
}

TEST(AttributeDriverTest, ValuesFeedForward) {
  sim::SimConfig cfg;
  cfg.horizon = SimTime::zero() + 3_s;
  sim::Simulation sim(cfg);
  WorldModel world(sim);
  const ObjectId obj = world.create_object("o");
  world.object(obj).set_attribute("flag", false);
  AttributeDriver driver(world, obj, "flag",
                         std::make_unique<PeriodicArrivals>(1_s),
                         std::make_unique<ToggleValue>(), Rng(10));
  driver.start();
  sim.run();
  // Three toggles from false: true, false, true.
  EXPECT_TRUE(world.object(obj).attribute("flag").as_bool());
}

}  // namespace
}  // namespace psn::world
