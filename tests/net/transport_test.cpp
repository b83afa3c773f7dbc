#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace psn::net {
namespace {

using namespace psn::time_literals;

struct Fixture {
  explicit Fixture(Overlay overlay,
                   std::unique_ptr<DelayModel> delay =
                       std::make_unique<FixedDelay>(Duration::millis(10)),
                   std::unique_ptr<LossModel> loss = std::make_unique<NoLoss>())
      : sim([] {
          sim::SimConfig cfg;
          cfg.horizon = SimTime::zero() + 100_s;
          cfg.trace_capacity = 64;
          return cfg;
        }()),
        transport(sim, std::move(overlay), std::move(delay), std::move(loss),
                  Rng(7)) {
    for (ProcessId p = 0; p < transport.overlay().size(); ++p) {
      transport.register_handler(p, [this, p](const Message& msg) {
        deliveries.push_back({p, msg});
      });
    }
  }

  Message computation(ProcessId src, ProcessId dst) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.kind = MessageKind::kComputation;
    ComputationPayload payload;
    payload.stamps.causal_vector = clocks::VectorStamp(transport.overlay().size());
    // Built via += rather than = "t": GCC 12's -Wrestrict false-fires on
    // the const char* assign inlined into the shared-payload move
    // (PR 105651; same workaround as predicate.cpp).
    payload.tag += 't';
    m.payload = std::move(payload);
    return m;
  }

  Message strobe(ProcessId src, ProcessId dst) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.kind = MessageKind::kStrobe;
    SenseReportPayload payload;
    payload.strobe_vector = clocks::VectorStamp(transport.overlay().size());
    m.payload = payload;
    return m;
  }

  sim::Simulation sim;
  Transport transport;
  std::vector<std::pair<ProcessId, Message>> deliveries;
};

TEST(TransportTest, UnicastDeliversAfterDelay) {
  Fixture f(Overlay::complete(3));
  f.transport.unicast(f.computation(0, 2));
  EXPECT_TRUE(f.deliveries.empty());  // not synchronous
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].first, 2u);
  EXPECT_EQ(f.deliveries[0].second.delivered_at, SimTime::zero() + 10_ms);
  EXPECT_EQ(f.deliveries[0].second.sent_at, SimTime::zero());
}

TEST(TransportTest, BroadcastReachesAllOthers) {
  Fixture f(Overlay::complete(5));
  f.transport.broadcast(f.computation(2, kNoProcess));
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 4u);
  for (const auto& [pid, msg] : f.deliveries) {
    EXPECT_NE(pid, 2u);
    EXPECT_EQ(msg.dst, pid);
  }
}

TEST(TransportTest, MultiHopDelayScalesWithDistance) {
  Fixture f(Overlay::line(4));  // 0-1-2-3
  f.transport.unicast(f.computation(0, 3));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].second.delivered_at,
            SimTime::zero() + 30_ms);  // 3 hops x 10 ms
}

/// A line 0-1-2 whose edge 1-2 is cut for the first 10 s, so node 2 is
/// unreachable from 0 and 1 until the heal.
struct CutFixture : Fixture {
  CutFixture() : Fixture(Overlay::line(3)) {
    sim::FaultPlan plan;
    plan.partitions.push_back(
        {1, 2, SimTime::zero(), SimTime::zero() + 10_s});
    faults = std::make_unique<sim::FaultSchedule>(std::move(plan));
    transport.set_fault_schedule(faults.get());
  }

  std::vector<sim::TraceRecord> records_of(sim::TraceKind kind) {
    std::vector<sim::TraceRecord> out;
    for (sim::TraceRecord& r : sim.trace()->take()) {
      if (r.kind == kind) out.push_back(std::move(r));
    }
    return out;
  }

  std::unique_ptr<sim::FaultSchedule> faults;
};

TEST(TransportTest, UnreachableDestinationCounted) {
  CutFixture f;
  f.transport.unicast(f.computation(0, 2));
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.transport.stats().of(MessageKind::kComputation).unreachable, 1u);
  EXPECT_EQ(f.transport.stats().drops.partition, 1u);
  const std::vector<sim::TraceRecord> lost =
      f.records_of(sim::TraceKind::kUnreachable);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].pid, 0u);
  EXPECT_EQ(lost[0].peer, 2u);
  EXPECT_EQ(lost[0].note.str(), "partition");
}

// Regression: transmit() used to count sent/bytes_sent before discovering
// the destination was unreachable, so partition scenarios overstated radio
// traffic. A message that never leaves the node must not be "sent".
TEST(TransportTest, UnreachableNotCountedAsSent) {
  CutFixture f;
  f.transport.unicast(f.computation(0, 2));
  f.transport.unicast(f.computation(0, 1));  // reachable control message
  f.sim.run();
  const auto& ks = f.transport.stats().of(MessageKind::kComputation);
  EXPECT_EQ(ks.unreachable, 1u);
  EXPECT_EQ(ks.sent, 1u);  // only the reachable one
  EXPECT_EQ(ks.bytes_sent,
            wire_bytes(f.computation(0, 1), ClockMode::kVectorStrobe));
  EXPECT_EQ(f.transport.stats().total().sent, 1u);
  EXPECT_EQ(f.records_of(sim::TraceKind::kUnreachable).size(), 1u);
}

TEST(TransportTest, LossDropsAndCounts) {
  Fixture f(Overlay::complete(2), std::make_unique<FixedDelay>(1_ms),
            std::make_unique<BernoulliLoss>(1.0));
  f.transport.unicast(f.computation(0, 1));
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  const auto& ks = f.transport.stats().of(MessageKind::kComputation);
  EXPECT_EQ(ks.sent, 1u);
  EXPECT_EQ(ks.dropped, 1u);
  EXPECT_EQ(ks.delivered, 0u);
}

TEST(TransportTest, StatsAccounting) {
  Fixture f(Overlay::complete(3));
  f.transport.broadcast(f.computation(0, kNoProcess));
  f.transport.unicast(f.computation(1, 2));
  f.sim.run();
  const auto& ks = f.transport.stats().of(MessageKind::kComputation);
  EXPECT_EQ(ks.sent, 3u);
  EXPECT_EQ(ks.delivered, 3u);
  EXPECT_GT(ks.bytes_sent, 0u);
  EXPECT_EQ(f.transport.stats().total().sent, 3u);
  EXPECT_EQ(f.transport.stats().total().bytes_sent, ks.bytes_sent);
}

TEST(TransportTest, SelfAddressedRejected) {
  Fixture f(Overlay::complete(2));
  EXPECT_THROW(f.transport.unicast(f.computation(1, 1)), InvariantError);
}

TEST(TransportTest, OutOfRangeEndpointsRejected) {
  Fixture f(Overlay::complete(2));
  EXPECT_THROW(f.transport.unicast(f.computation(0, 9)), InvariantError);
}

TEST(TransportTest, SynchronousDeliveryAtSameInstant) {
  Fixture f(Overlay::complete(2), std::make_unique<SynchronousDelay>());
  f.transport.unicast(f.computation(0, 1));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].second.delivered_at, SimTime::zero());
}

TEST(WireBytesTest, SenseReportModesOrdered) {
  SenseReportPayload p;
  p.strobe_vector = clocks::VectorStamp(8);
  // physical < scalar < vector for n > 1.
  EXPECT_LT(p.wire_bytes_physical_mode(), p.wire_bytes_scalar_mode());
  EXPECT_LT(p.wire_bytes_scalar_mode(), p.wire_bytes_vector_mode());
  // Vector mode grows linearly with n.
  SenseReportPayload big;
  big.strobe_vector = clocks::VectorStamp(16);
  EXPECT_EQ(big.wire_bytes_vector_mode() - p.wire_bytes_vector_mode(),
            8u * 8u);
}

// Golden per-mode sizes: header 12 + object 4 + attr 4 + value 8 = 28 base;
// scalar adds stamp 8 + pid 4, vector adds 8n + pid 4, physical adds stamp 8.
TEST(WireBytesTest, SenseReportGoldenSizesPerMode) {
  for (const std::size_t n : {2u, 4u, 9u, 33u}) {
    SenseReportPayload p;
    p.strobe_vector = clocks::VectorStamp(n);
    EXPECT_EQ(p.wire_bytes_scalar_mode(), 40u);
    EXPECT_EQ(p.wire_bytes_vector_mode(), 28u + 8u * n + 4u);
    EXPECT_EQ(p.wire_bytes_physical_mode(), 36u);
  }
}

// Regression: wire_bytes(msg) used to price every sense report at the vector
// payload regardless of the deployment's clock mode, so E7's scalar and
// physical byte columns were wrong. The mode-aware overload must dispatch.
TEST(WireBytesTest, ModeAwareOverloadDispatches) {
  Message m;
  m.kind = MessageKind::kStrobe;
  SenseReportPayload p;
  p.strobe_vector = clocks::VectorStamp(5);
  m.payload = p;
  EXPECT_EQ(wire_bytes(m, ClockMode::kScalarStrobe),
            p.wire_bytes_scalar_mode());
  EXPECT_EQ(wire_bytes(m, ClockMode::kVectorStrobe),
            p.wire_bytes_vector_mode());
  EXPECT_EQ(wire_bytes(m, ClockMode::kPhysical),
            p.wire_bytes_physical_mode());
  // Mode only affects sense reports; computation payloads are unchanged.
  Message c;
  c.kind = MessageKind::kComputation;
  ComputationPayload cp;
  cp.stamps.causal_vector = clocks::VectorStamp(5);
  c.payload = cp;
  EXPECT_EQ(wire_bytes(c, ClockMode::kScalarStrobe),
            wire_bytes(c, ClockMode::kVectorStrobe));
}

TEST(TransportTest, ActiveClockModePricesTheWire) {
  for (const ClockMode mode :
       {ClockMode::kScalarStrobe, ClockMode::kVectorStrobe,
        ClockMode::kPhysical}) {
    Fixture f(Overlay::complete(4));
    f.transport.set_clock_mode(mode);
    f.transport.broadcast(f.strobe(0, kNoProcess));
    f.sim.run();
    SenseReportPayload sample;
    sample.strobe_vector = clocks::VectorStamp(4);
    const auto& ks = f.transport.stats().of(MessageKind::kStrobe);
    EXPECT_EQ(ks.sent, 3u);
    EXPECT_EQ(ks.bytes_sent,
              3u * (mode == ClockMode::kScalarStrobe
                        ? sample.wire_bytes_scalar_mode()
                        : mode == ClockMode::kVectorStrobe
                              ? sample.wire_bytes_vector_mode()
                              : sample.wire_bytes_physical_mode()));
    // Shadow totals price the same traffic under all three modes at once.
    EXPECT_EQ(f.transport.stats().strobe_mode_bytes.of(mode), ks.bytes_sent);
    EXPECT_EQ(f.transport.stats().strobe_mode_bytes.scalar,
              3u * sample.wire_bytes_scalar_mode());
    EXPECT_EQ(f.transport.stats().strobe_mode_bytes.vector,
              3u * sample.wire_bytes_vector_mode());
    EXPECT_EQ(f.transport.stats().strobe_mode_bytes.physical,
              3u * sample.wire_bytes_physical_mode());
  }
}

TEST(WireBytesTest, MessageKindNames) {
  EXPECT_STREQ(to_string(MessageKind::kStrobe), "strobe");
  EXPECT_STREQ(to_string(MessageKind::kComputation), "computation");
  EXPECT_STREQ(to_string(MessageKind::kSync), "sync");
  EXPECT_STREQ(to_string(MessageKind::kActuation), "actuation");
}

TEST(WireBytesTest, ClockModeNames) {
  EXPECT_STREQ(to_string(ClockMode::kScalarStrobe), "scalar");
  EXPECT_STREQ(to_string(ClockMode::kVectorStrobe), "vector");
  EXPECT_STREQ(to_string(ClockMode::kPhysical), "physical");
}

TEST(FifoTransportTest, FifoClampPreventsOvertaking) {
  sim::SimConfig cfg;
  cfg.horizon = SimTime::zero() + Duration::seconds(100);
  sim::Simulation sim(cfg);
  Transport transport(sim, Overlay::complete(2),
                      std::make_unique<UniformBoundedDelay>(
                          Duration::millis(1), Duration::millis(100)),
                      std::make_unique<NoLoss>(), Rng(3));
  transport.set_fifo_channels(true);
  std::vector<std::string> arrived;
  transport.register_handler(0, [](const Message&) {});
  transport.register_handler(1, [&](const Message& msg) {
    arrived.push_back(msg.computation().tag);
  });
  for (int k = 0; k < 50; ++k) {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.kind = MessageKind::kComputation;
    ComputationPayload payload;
    payload.stamps.causal_vector = clocks::VectorStamp(2);
    payload.tag = std::to_string(k);
    m.payload = payload;
    transport.unicast(std::move(m));
  }
  sim.scheduler().run();
  ASSERT_EQ(arrived.size(), 50u);
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(arrived[static_cast<std::size_t>(k)], std::to_string(k));
  }
}

}  // namespace
}  // namespace psn::net
