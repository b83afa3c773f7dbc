// Integration tests of the assembled ⟨P, L, O, C⟩ system: world events flow
// to assigned sensors, strobes reach the root, clock invariants hold across
// a full simulated run.

#include "core/sharded_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/execution_view.hpp"
#include "core/predicate_parser.hpp"
#include "net/transport.hpp"
#include "support/periodic_arrivals.hpp"
#include "world/generators.hpp"

namespace psn::core {
namespace {

using namespace psn::time_literals;

ShardedSystemConfig base_config(std::size_t sensors, Duration delta,
                                std::uint64_t seed = 1) {
  ShardedSystemConfig cfg;
  cfg.base.num_sensors = sensors;
  cfg.base.sim.seed = seed;
  cfg.base.sim.horizon = SimTime::zero() + 20_s;
  cfg.base.delta = delta;
  return cfg;
}

/// Attaches periodic counter drivers, one world object per sensor.
void attach_counters(ShardedPervasiveSystem& system, Duration period,
                     std::vector<std::unique_ptr<world::AttributeDriver>>& keep) {
  for (ProcessId pid = 1; pid < system.num_processes(); ++pid) {
    const auto obj =
        system.world().create_object("obj_" + std::to_string(pid));
    system.world().object(obj).set_attribute("count", std::int64_t{0});
    system.assign(obj, "count", pid);
    keep.push_back(std::make_unique<world::AttributeDriver>(
        system.world(), obj, "count",
        std::make_unique<test_support::PeriodicArrivals>(
            period, Duration::millis(50)),
        std::make_unique<world::CounterValue>(),
        system.sim().rng_for("driver", pid)));
    keep.back()->start();
  }
}

TEST(SystemIntegrationTest, EveryAssignedWorldEventIsSensedAndReported) {
  ShardedPervasiveSystem system(base_config(3, 50_ms));
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  attach_counters(system, 1_s, drivers);
  system.run();

  const std::size_t world_events = system.world().timeline().size();
  EXPECT_GT(world_events, 30u);

  // Each sensor recorded one sense event per its world events.
  std::size_t sense_events = 0;
  for (const auto* events : system.sensor_executions()) {
    for (const auto& e : *events) {
      if (e.type == EventType::kSense) sense_events++;
    }
  }
  EXPECT_EQ(sense_events, world_events);

  // The root received one report per sense event (lossless, bounded delay,
  // horizon leaves a small tail in flight at most).
  EXPECT_LE(system.log().updates.size(), sense_events);
  EXPECT_GE(system.log().updates.size(), sense_events - 3);
}

TEST(SystemIntegrationTest, RootLogIsInDeliveryOrder) {
  ShardedPervasiveSystem system(base_config(4, 200_ms));
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  attach_counters(system, 500_ms, drivers);
  system.run();
  const auto& updates = system.log().updates;
  ASSERT_GT(updates.size(), 10u);
  for (std::size_t i = 1; i < updates.size(); ++i) {
    EXPECT_GE(updates[i].delivered_at, updates[i - 1].delivered_at);
  }
}

TEST(SystemIntegrationTest, StrobeTrafficNeverTicksCausalClocks) {
  // The paper's §4.2 separation at system scale: with no computation
  // messages, each sensor's causal vector clock must count ONLY its own
  // events — all components for other processes stay 0 even though strobes
  // flew everywhere.
  ShardedPervasiveSystem system(base_config(3, 50_ms));
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  attach_counters(system, 1_s, drivers);
  system.run();

  for (const auto* events : system.sensor_executions()) {
    ASSERT_FALSE(events->empty());
    const auto& last = events->back();
    for (std::size_t j = 0; j < last.clocks.causal_vector.size(); ++j) {
      if (j == last.pid) {
        EXPECT_EQ(last.clocks.causal_vector[j], events->size());
      } else {
        EXPECT_EQ(last.clocks.causal_vector[j], 0u)
            << "strobe traffic leaked into the causal clock";
      }
    }
    // The strobe vector, by contrast, must have heard of the others.
    std::uint64_t heard = 0;
    for (std::size_t j = 0; j < last.clocks.strobe_vector.size(); ++j) {
      if (j != last.pid) heard += last.clocks.strobe_vector[j];
    }
    EXPECT_GT(heard, 0u);
  }
}

TEST(SystemIntegrationTest, ComputationMessagesDriveCausalClocks) {
  ShardedPervasiveSystem system(base_config(2, 10_ms));
  // P1 sends a computation message to P2 at t=1s.
  system.sim().scheduler().schedule_at(SimTime::zero() + 1_s, [&] {
    system.sensor(1).send_computation(2, "hello");
  });
  system.run();

  // P2 recorded a receive event whose causal vector includes P1's send.
  const auto& p2_events = *system.sensor_executions()[1];
  ASSERT_EQ(p2_events.size(), 1u);
  EXPECT_EQ(p2_events[0].type, EventType::kReceive);
  EXPECT_EQ(p2_events[0].clocks.causal_vector[1], 1u);  // P1's send seen
  EXPECT_EQ(p2_events[0].clocks.causal_vector[2], 1u);  // own tick
  EXPECT_GT(p2_events[0].clocks.lamport.value, 1u);
}

TEST(SystemIntegrationTest, SameSeedIsBitIdentical) {
  auto run_once = [](std::uint64_t seed) {
    ShardedPervasiveSystem system(base_config(3, 100_ms, seed));
    std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
    attach_counters(system, 700_ms, drivers);
    system.run();
    std::vector<std::pair<std::int64_t, ProcessId>> trace;
    for (const auto& u : system.log().updates) {
      trace.emplace_back(u.delivered_at.count_nanos(), u.reporter);
    }
    return trace;
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

TEST(SystemIntegrationTest, DeltaBoundScalesWithTopologyDiameter) {
  ShardedSystemConfig cfg = base_config(4, 100_ms);
  cfg.base.topology = TopologyKind::kComplete;
  EXPECT_EQ(ShardedPervasiveSystem(cfg).delta_bound(), 100_ms);
  cfg.base.topology = TopologyKind::kLine;  // 5 processes in a line: diameter 4
  EXPECT_EQ(ShardedPervasiveSystem(cfg).delta_bound(), 400_ms);
  cfg.base.delay_kind = DelayKind::kExponential;
  EXPECT_EQ(ShardedPervasiveSystem(cfg).delta_bound(), Duration::max());
}

TEST(SystemIntegrationTest, EveryShardReadsOneTopology) {
  ShardedSystemConfig cfg = base_config(40, 100_ms);
  cfg.base.topology = TopologyKind::kStar;
  cfg.shards = 4;
  const ShardedPervasiveSystem system(cfg);
  const ProcessId* adjacency =
      system.sensor(1).transport().overlay().neighbors(0).data();
  for (std::size_t s = 0; s < system.num_shards(); ++s) {
    const ProcessId pid = std::max<ProcessId>(1, system.shard_map().begin(s));
    const net::Overlay& overlay = system.sensor(pid).transport().overlay();
    EXPECT_EQ(overlay.size(), 41u);
    EXPECT_EQ(overlay.neighbors(0).data(), adjacency) << "shard " << s;
  }
}

TEST(SystemIntegrationTest, SynchronousDeltaZeroDelivery) {
  ShardedSystemConfig cfg = base_config(2, Duration::zero());
  cfg.base.delay_kind = DelayKind::kSynchronous;
  ShardedPervasiveSystem system(cfg);
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  attach_counters(system, 1_s, drivers);
  system.run();
  for (const auto& u : system.log().updates) {
    EXPECT_EQ(u.delivered_at, u.report.true_sense_time);
  }
}

TEST(SystemIntegrationTest, LossReducesDeliveredReports) {
  ShardedSystemConfig cfg = base_config(2, 50_ms, 5);
  cfg.base.loss_probability = 0.5;
  ShardedPervasiveSystem lossy(cfg);
  std::vector<std::unique_ptr<world::AttributeDriver>> d1;
  attach_counters(lossy, 200_ms, d1);
  lossy.run();

  ShardedSystemConfig clean_cfg = base_config(2, 50_ms, 5);
  ShardedPervasiveSystem clean(clean_cfg);
  std::vector<std::unique_ptr<world::AttributeDriver>> d2;
  attach_counters(clean, 200_ms, d2);
  clean.run();

  EXPECT_LT(lossy.log().updates.size(), clean.log().updates.size() * 3 / 4);
  EXPECT_GT(lossy.message_stats().of(net::MessageKind::kStrobe).dropped, 0u);
}

TEST(SystemIntegrationTest, ExecutionViewsAlignWithClockComponents) {
  ShardedPervasiveSystem system(base_config(2, 50_ms));
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  attach_counters(system, 1_s, drivers);
  system.run();

  const auto strobe_view = ExecutionView::from_strobe_stamps(system);
  ASSERT_EQ(strobe_view.num_processes(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    const auto& events = strobe_view.events(p);
    for (std::size_t k = 0; k < events.size(); ++k) {
      // Own component of the k-th sense event's strobe stamp is k+1.
      EXPECT_EQ(events[k].stamp[strobe_view.pid(p)], k + 1);
    }
  }
  // The final (complete) cut must be consistent.
  EXPECT_TRUE(strobe_view.consistent(strobe_view.final_cut()));
}

TEST(SystemIntegrationTest, LiveAccessorsNeedOneShard) {
  ShardedSystemConfig cfg = base_config(3, 50_ms);
  cfg.shards = 2;
  ShardedPervasiveSystem system(cfg);
  EXPECT_THROW(system.world(), InvariantError);
  EXPECT_THROW(system.sim(), InvariantError);
  EXPECT_THROW(system.transport(), InvariantError);
  EXPECT_THROW(system.root(), InvariantError);
}

TEST(SystemIntegrationTest, LiveWorldAndReplayAreExclusive) {
  ShardedPervasiveSystem live(base_config(2, 50_ms));
  live.world();
  EXPECT_THROW(live.set_world_events({}), InvariantError);

  ShardedPervasiveSystem replay(base_config(2, 50_ms));
  world::WorldEvent ev;
  ev.when = SimTime::zero() + 1_s;
  replay.set_world_events({ev});
  EXPECT_THROW(replay.world(), InvariantError);
}

/// A directly driven star deployment (unicast reports to P_0, lean clocks)
/// replaying a synthetic timeline — no experiment harness — so its metrics
/// snapshot is exactly what the system itself reports.
ShardedSystemConfig star_unicast_config(std::size_t shards) {
  ShardedSystemConfig cfg = base_config(12, 40_ms, 3);
  cfg.base.sim.horizon = SimTime::zero() + 5_s;
  cfg.base.topology = TopologyKind::kStar;
  cfg.base.clock_config.track_vectors = false;
  cfg.base.loss_probability = 0.1;
  cfg.unicast_reports = true;
  cfg.shards = shards;
  cfg.pool_threads = shards > 1 ? 2 : 1;
  return cfg;
}

struct DirectRun {
  std::size_t executed = 0;
  net::MessageStats stats;
  MetricsSnapshot metrics;
};

DirectRun run_star_unicast(std::size_t shards) {
  ShardedPervasiveSystem system(star_unicast_config(shards));
  std::vector<world::WorldEvent> events;
  for (std::uint32_t i = 0; i < 400; ++i) {
    world::WorldEvent ev;
    ev.when = SimTime::zero() + Duration::millis(11 * i + 3);
    ev.object = i % 12;
    ev.attribute = "count";
    ev.value = std::int64_t{i};
    ev.index = i;
    events.push_back(std::move(ev));
  }
  for (world::ObjectId obj = 0; obj < 12; ++obj) {
    system.assign(obj, "count", static_cast<ProcessId>(obj + 1));
  }
  system.set_world_events(std::move(events));
  DirectRun out;
  out.executed = system.run();
  out.stats = system.message_stats();
  out.metrics = system.metrics_snapshot();
  return out;
}

TEST(SystemIntegrationTest, DirectSnapshotMatchesTalliesAtEveryShardCount) {
  const DirectRun one = run_star_unicast(1);
  const DirectRun four = run_star_unicast(4);
  for (const DirectRun* run : {&one, &four}) {
    const auto& c = run->metrics.counters;
    EXPECT_EQ(c.at("sim.events_executed"), run->executed);
    std::size_t sent = 0, bytes = 0, delivered = 0, dropped = 0,
                unreachable = 0;
    for (const net::MessageKind kind :
         {net::MessageKind::kComputation, net::MessageKind::kStrobe,
          net::MessageKind::kSync, net::MessageKind::kActuation}) {
      const auto& ks = run->stats.of(kind);
      sent += ks.sent;
      bytes += ks.bytes_sent;
      delivered += ks.delivered;
      dropped += ks.dropped;
      unreachable += ks.unreachable;
    }
    EXPECT_GT(sent, 0u);
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(c.at("net.sent"), sent);
    EXPECT_EQ(c.at("net.bytes_sent"), bytes);
    EXPECT_EQ(c.at("net.delivered"), delivered);
    EXPECT_EQ(c.at("net.dropped"), dropped);
    EXPECT_EQ(c.at("net.unreachable"), unreachable);
  }
  EXPECT_EQ(one.executed, four.executed);
  EXPECT_EQ(one.metrics.csv(), four.metrics.csv());
}

TEST(SystemIntegrationTest, AssignValidation) {
  ShardedPervasiveSystem system(base_config(2, 50_ms));
  const auto obj = system.world().create_object("o");
  EXPECT_THROW(system.assign(obj, "x", 0), InvariantError);   // root senses nothing
  EXPECT_THROW(system.assign(obj, "x", 9), InvariantError);   // no such sensor
  system.assign(obj, "x", 1);
  EXPECT_THROW(system.assign(obj, "x", 2), InvariantError);   // double assign
  EXPECT_THROW(system.sensor(0), InvariantError);
  // No sensor is a config the system does not admit, not a library bug.
  EXPECT_THROW(ShardedPervasiveSystem(base_config(0, 50_ms)), ConfigError);
}

TEST(SystemIntegrationTest, ConstructorAdmitsConfigsWithConfigError) {
  // Each of these once reached a PSN_CHECK backstop while the system was
  // being built, which reports a library bug; admission names the config.
  auto sharded = [](auto&& edit) {
    ShardedSystemConfig cfg = base_config(4, 50_ms);
    cfg.shards = 2;
    edit(cfg.base);
    return cfg;
  };
  EXPECT_THROW(ShardedPervasiveSystem(sharded(
                   [](SystemConfig& base) { base.fifo_channels = true; })),
               ConfigError);
  EXPECT_THROW(ShardedPervasiveSystem(sharded([](SystemConfig& base) {
                 base.gilbert_elliott = SystemConfig::GilbertElliottParams{};
               })),
               ConfigError);
  EXPECT_THROW(ShardedPervasiveSystem(sharded([](SystemConfig& base) {
                 base.delay_kind = DelayKind::kSynchronous;
               })),
               ConfigError);

  ShardedSystemConfig duty = base_config(4, 50_ms);
  net::DutyCycle dc;
  dc.phase = dc.period;
  duty.base.duty_cycle = dc;
  EXPECT_THROW(ShardedPervasiveSystem{duty}, ConfigError);
  duty.base.duty_cycle->phase = dc.period - 1_ms;
  EXPECT_NO_THROW(ShardedPervasiveSystem{duty});
}

}  // namespace
}  // namespace psn::core
