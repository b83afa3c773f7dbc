#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/sharded_system.hpp"
#include "world/generators.hpp"

namespace psn::sim {
namespace {

TraceRecord at_step(std::size_t i) {
  TraceRecord r;
  r.at = SimTime::from_seconds(static_cast<double>(i));
  r.kind = TraceKind::kSend;
  r.pid = static_cast<ProcessId>(i);
  r.bytes = static_cast<std::uint32_t>(i);
  return r;
}

TEST(TraceRecorderTest, RejectsZeroCapacity) {
  EXPECT_THROW(TraceRecorder(0), InvariantError);
}

TEST(TraceRecorderTest, KeepsEverythingBelowCapacity) {
  TraceRecorder tr(8);
  for (std::size_t i = 0; i < 5; ++i) tr.record(at_step(i));
  EXPECT_EQ(tr.size(), 5u);
  const auto records = tr.take();
  ASSERT_EQ(records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(records[i].pid, i);
}

TEST(TraceRecorderTest, FullRecorderWithNoHookKeepsEveryRecordInOrder) {
  // 11 records through 3 slots: with no drain hook a full recorder grows,
  // so nothing is dropped or reordered.
  TraceRecorder tr(3);
  for (std::size_t i = 0; i < 11; ++i) tr.record(at_step(i));
  EXPECT_EQ(tr.size(), 11u);
  const auto records = tr.take();
  ASSERT_EQ(records.size(), 11u);
  for (std::size_t i = 0; i < 11; ++i) EXPECT_EQ(records[i].pid, i);
  EXPECT_EQ(tr.size(), 0u);
}

TEST(TraceRecorderTest, SecondTraceRecordsCallThrows) {
  core::ShardedSystemConfig config;
  config.base.num_sensors = 2;
  config.base.sim.seed = 5;
  config.base.sim.horizon = SimTime::zero() + Duration::seconds(2);
  config.base.sim.trace_capacity = 64;  // turns the trace on; not a bound
  core::ShardedPervasiveSystem system(config);
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  for (ProcessId pid = 1; pid <= 2; ++pid) {
    // Built with += : GCC 12's -Wrestrict false-fires on `"o" + <rvalue
    // string>` under -O3.
    std::string name = "o";
    name += std::to_string(pid);
    const auto obj = system.world().create_object(name);
    system.world().object(obj).set_attribute("count", std::int64_t{0});
    system.assign(obj, "count", pid);
    drivers.push_back(std::make_unique<world::AttributeDriver>(
        system.world(), obj, "count",
        std::make_unique<world::PoissonArrivals>(20.0),
        std::make_unique<world::CounterValue>(),
        system.sim().rng_for("d", pid)));
    drivers.back()->start();
  }
  system.run();
  // More records than the capacity, all kept, in time order.
  const std::vector<TraceRecord> trace = system.trace_records();
  EXPECT_GT(trace.size(), 64u);
  EXPECT_TRUE(std::is_sorted(
      trace.begin(), trace.end(),
      [](const TraceRecord& a, const TraceRecord& b) { return a.at < b.at; }));
  EXPECT_THROW(system.trace_records(), InvariantError);
}

TEST(TraceKindTest, Names) {
  EXPECT_STREQ(to_string(TraceKind::kSense), "sense");
  EXPECT_STREQ(to_string(TraceKind::kSend), "send");
  EXPECT_STREQ(to_string(TraceKind::kReceive), "receive");
  EXPECT_STREQ(to_string(TraceKind::kDeliver), "deliver");
  EXPECT_STREQ(to_string(TraceKind::kDrop), "drop");
  EXPECT_STREQ(to_string(TraceKind::kUnreachable), "unreachable");
  EXPECT_STREQ(to_string(TraceKind::kDetect), "detect");
}

// --- canonical_trace_order against a reference stable sort -----------------

/// The canonical key, restated independently of the implementation.
auto reference_key(const TraceRecord& r) {
  int group = 5;
  switch (r.kind) {
    case TraceKind::kSend:
    case TraceKind::kDrop:
    case TraceKind::kUnreachable: group = 0; break;
    case TraceKind::kSense: group = 1; break;
    case TraceKind::kDeliver: group = 2; break;
    case TraceKind::kReceive: group = 3; break;
    case TraceKind::kDetect: group = 4; break;
    case TraceKind::kCrash:
    case TraceKind::kRestart:
    case TraceKind::kPartition:
    case TraceKind::kHeal: group = -1; break;
  }
  return std::make_tuple(r.at, r.seq, group, r.peer, r.pid,
                         static_cast<int>(r.kind));
}

std::vector<TraceRecord> reference_order(std::vector<TraceRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return reference_key(a) < reference_key(b);
                   });
  return records;
}

/// Every field, `note` included: records with equal keys differ only in
/// their notes, so this is what catches an unstable step.
void expect_same_records(const std::vector<TraceRecord>& got,
                         const std::vector<TraceRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TraceRecord& g = got[i];
    const TraceRecord& w = want[i];
    ASSERT_TRUE(g.at == w.at && g.kind == w.kind && g.pid == w.pid &&
                g.peer == w.peer && g.message_kind == w.message_kind &&
                g.bytes == w.bytes && g.note == w.note && g.seq == w.seq)
        << "first difference at record " << i << ": got note "
        << g.note.str() << ", want note " << w.note.str();
  }
}

constexpr TraceKind kAllKinds[] = {
    TraceKind::kSense,   TraceKind::kSend,        TraceKind::kReceive,
    TraceKind::kDeliver, TraceKind::kDrop,        TraceKind::kUnreachable,
    TraceKind::kDetect,  TraceKind::kCrash,       TraceKind::kRestart,
    TraceKind::kPartition, TraceKind::kHeal};

/// A record from a small key space — few seqs, pids and peers over all
/// kinds — so equal-`at` buckets are large and full-key ties are common.
TraceRecord random_record(Rng& rng, SimTime at, std::size_t serial) {
  TraceRecord r;
  r.at = at;
  r.kind = kAllKinds[static_cast<std::size_t>(rng.uniform_int(0, 10))];
  r.pid = static_cast<ProcessId>(rng.uniform_int(0, 3));
  r.peer = rng.bernoulli(0.25) ? kNoProcess
                               : static_cast<ProcessId>(rng.uniform_int(0, 3));
  r.message_kind = static_cast<int>(rng.uniform_int(-1, 3));
  r.bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 64));
  r.seq = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
  // Built with += : GCC 12's -Wrestrict false-fires on `"r" + <rvalue
  // string>` under -O3.
  std::string note = "r";
  note += std::to_string(serial);
  r.note = note;
  return r;
}

/// K shard rings, each nondecreasing in `at` with long co-instant stretches.
std::vector<TraceRecord> shard_rings(Rng& rng, std::size_t k,
                                     std::size_t per_ring) {
  std::vector<TraceRecord> out;
  for (std::size_t s = 0; s < k; ++s) {
    std::int64_t t = rng.uniform_int(0, 5);
    for (std::size_t i = 0; i < per_ring; ++i) {
      if (rng.bernoulli(0.3)) t += rng.uniform_int(1, 3);
      out.push_back(random_record(rng, SimTime::zero() + Duration::millis(t),
                                  out.size()));
    }
  }
  return out;
}

/// The fault plan's post-run records: seq 0, appended in schedule order.
void append_fault_tail(Rng& rng, std::vector<TraceRecord>& out) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r = random_record(
        rng, SimTime::zero() + Duration::millis(rng.uniform_int(0, 40)),
        out.size());
    r.kind = kAllKinds[static_cast<std::size_t>(rng.uniform_int(7, 10))];
    r.seq = 0;
    out.push_back(r);
  }
}

void expect_matches_reference(std::vector<TraceRecord> records) {
  const std::vector<TraceRecord> want = reference_order(records);
  canonical_trace_order(records);
  expect_same_records(records, want);
}

TEST(CanonicalTraceOrderTest, ShardRingsWithFaultTailMatchStableSort) {
  Rng rng(0x7ace);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<TraceRecord> records =
        shard_rings(rng, k, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    if (trial % 2 == 1) append_fault_tail(rng, records);
    expect_matches_reference(std::move(records));
  }
}

TEST(CanonicalTraceOrderTest, ShuffledInputMatchesStableSort) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<TraceRecord> records = shard_rings(rng, 3, 100);
    append_fault_tail(rng, records);
    std::shuffle(records.begin(), records.end(), rng);
    expect_matches_reference(std::move(records));
  }
}

TEST(CanonicalTraceOrderTest, LargeCoInstantBucketMatchesStableSort) {
  Rng rng(0xb0c4);
  std::vector<TraceRecord> records;
  const SimTime at = SimTime::zero() + Duration::millis(7);
  for (std::size_t i = 0; i < 10'000; ++i) {
    records.push_back(random_record(rng, at, i));
  }
  expect_matches_reference(std::move(records));
}

TEST(CanonicalTraceOrderTest, EmptyAndSingleRecord) {
  std::vector<TraceRecord> none;
  canonical_trace_order(none);
  EXPECT_TRUE(none.empty());
  std::vector<TraceRecord> one{at_step(3)};
  canonical_trace_order(one);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].pid, 3u);
}

}  // namespace
}  // namespace psn::sim
