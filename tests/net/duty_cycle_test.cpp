#include "net/duty_cycle.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace psn::net {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

TEST(DutyCycleTest, AwakeWindows) {
  DutyCycle dc;
  dc.period = 1000_ms;
  dc.window = 100_ms;
  EXPECT_TRUE(dc.is_awake(t(0)));
  EXPECT_TRUE(dc.is_awake(t(99)));
  EXPECT_FALSE(dc.is_awake(t(100)));
  EXPECT_FALSE(dc.is_awake(t(999)));
  EXPECT_TRUE(dc.is_awake(t(1000)));
  EXPECT_TRUE(dc.is_awake(t(2050)));
}

TEST(DutyCycleTest, PhaseShiftsWindows) {
  DutyCycle dc;
  dc.period = 1000_ms;
  dc.window = 100_ms;
  dc.phase = 300_ms;
  EXPECT_FALSE(dc.is_awake(t(0)));
  EXPECT_TRUE(dc.is_awake(t(300)));
  EXPECT_TRUE(dc.is_awake(t(399)));
  EXPECT_FALSE(dc.is_awake(t(400)));
  EXPECT_TRUE(dc.is_awake(t(1350)));
}

TEST(DutyCycleTest, NextWake) {
  DutyCycle dc;
  dc.period = 1000_ms;
  dc.window = 100_ms;
  EXPECT_EQ(dc.next_wake(t(50)), t(50));     // already awake
  EXPECT_EQ(dc.next_wake(t(100)), t(1000));  // window just closed
  EXPECT_EQ(dc.next_wake(t(999)), t(1000));
  EXPECT_EQ(dc.next_wake(t(1000)), t(1000));
  dc.phase = 250_ms;
  EXPECT_EQ(dc.next_wake(t(0)), t(250));
  EXPECT_EQ(dc.next_wake(t(351)), t(1250));
}

TEST(DutyCycleTest, DutyFractionAndWorstCase) {
  DutyCycle dc;
  dc.period = 1000_ms;
  dc.window = 100_ms;
  EXPECT_DOUBLE_EQ(dc.duty_fraction(), 0.1);
  EXPECT_EQ(worst_case_wait(dc), 900_ms);
}

TEST(DutyCycleTest, Validity) {
  DutyCycle dc;
  EXPECT_TRUE(dc.valid());
  dc.window = dc.period + 1_ms;
  EXPECT_FALSE(dc.valid());
  dc.window = 10_ms;
  dc.phase = dc.period;
  EXPECT_FALSE(dc.valid());
}

TEST(DutyCycleTest, AlignPhases) {
  std::vector<DutyCycle> fleet(3);
  fleet[0].phase = 300_ms;
  fleet[1].phase = 50_ms;
  fleet[2].phase = 700_ms;
  align_phases(fleet);
  for (const auto& dc : fleet) EXPECT_EQ(dc.phase, 50_ms);
}

TEST(DutyCycleTransportTest, SleepDefersDelivery) {
  sim::SimConfig cfg;
  cfg.horizon = SimTime::zero() + 100_s;
  sim::Simulation sim(cfg);
  Transport transport(sim, Overlay::complete(2),
                      std::make_unique<FixedDelay>(10_ms),
                      std::make_unique<NoLoss>(), Rng(1));
  DutyCycle dc;
  dc.period = 1000_ms;
  dc.window = 100_ms;
  transport.set_wake_schedule(1, dc);

  std::vector<SimTime> deliveries;
  transport.register_handler(0, [](const Message&) {});
  transport.register_handler(
      1, [&](const Message& msg) { deliveries.push_back(msg.delivered_at); });

  auto send = [&](std::int64_t at_ms) {
    sim.scheduler().schedule_at(t(at_ms), [&transport] {
      Message m;
      m.src = 0;
      m.dst = 1;
      m.kind = MessageKind::kComputation;
      ComputationPayload payload;
      payload.stamps.causal_vector = clocks::VectorStamp(2);
      m.payload = payload;
      transport.unicast(std::move(m));
    });
  };
  send(20);    // arrives at 30 ms — awake, immediate
  send(200);   // arrives at 210 ms — asleep, waits until 1000 ms
  send(1050);  // arrives at 1060 ms — awake again
  sim.run();

  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], t(30));
  EXPECT_EQ(deliveries[1], t(1000));
  EXPECT_EQ(deliveries[2], t(1060));
}

TEST(DutyCycleTransportTest, InvalidScheduleRejected) {
  sim::SimConfig cfg;
  sim::Simulation sim(cfg);
  Transport transport(sim, Overlay::complete(2),
                      std::make_unique<FixedDelay>(10_ms),
                      std::make_unique<NoLoss>(), Rng(3));
  DutyCycle bad;
  bad.window = bad.period * 2;
  EXPECT_THROW(transport.set_wake_schedule(1, bad), InvariantError);
  EXPECT_THROW(transport.set_wake_schedule(9, DutyCycle{}), InvariantError);
}

}  // namespace
}  // namespace psn::net
