#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace psn {
namespace {

TEST(MetricsSnapshotTest, CapturesAllKinds) {
  MetricsSnapshot snap;
  EXPECT_TRUE(snap.empty());
  snap.counters["c"] = 3;
  snap.gauges["g"] = 1.5;
  snap.stats["s"].add(2.0);
  snap.stats["s"].add(4.0);
  snap.histograms.emplace("h", Histogram(0.0, 10.0, 10)).first->second.add(5.0);

  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 1.5);
  EXPECT_EQ(snap.stats.at("s").count(), 2u);
  EXPECT_DOUBLE_EQ(snap.stats.at("s").mean(), 3.0);
  EXPECT_EQ(snap.histograms.at("h").total(), 1u);
  EXPECT_EQ(snap.histograms.at("h").bins(), 10u);
}

TEST(MetricsSnapshotTest, MergeAddsAndCombines) {
  MetricsSnapshot a, b;
  a.counters["c"] = 2;
  b.counters["c"] = 5;
  b.counters["only_b"] = 1;
  a.gauges["g"] = 1.0;
  b.gauges["g"] = 2.0;
  a.stats["s"].add(1.0);
  b.stats["s"].add(3.0);
  a.histograms.emplace("h", Histogram(0.0, 4.0, 4)).first->second.add(1.0);
  b.histograms.emplace("h", Histogram(0.0, 4.0, 4)).first->second.add(1.5);

  MetricsSnapshot merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.counters.at("c"), 7u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 3.0);  // gauges add across runs
  EXPECT_EQ(merged.stats.at("s").count(), 2u);
  EXPECT_DOUBLE_EQ(merged.stats.at("s").mean(), 2.0);
  EXPECT_EQ(merged.histograms.at("h").total(), 2u);
  EXPECT_EQ(merged.histograms.at("h").bin_count(1), 2u);  // both in [1, 2)
}

TEST(MetricsSnapshotTest, MergeAccumulatesAcrossSources) {
  // Merging into an empty snapshot copies the first source; later sources
  // add onto it, histograms included.
  MetricsSnapshot a, b;
  a.counters["c"] = 1;
  b.counters["c"] = 2;
  a.stats["s"].add(1.0);
  b.stats["s"].add(3.0);
  a.histograms.emplace("h", Histogram(0.0, 4.0, 4)).first->second.add(0.5);
  b.histograms.emplace("h", Histogram(0.0, 4.0, 4)).first->second.add(0.5);

  MetricsSnapshot out;
  out.merge(a);
  out.merge(b);
  EXPECT_EQ(out.counters.at("c"), 3u);
  EXPECT_EQ(out.stats.at("s").count(), 2u);
  EXPECT_EQ(out.histograms.at("h").total(), 2u);
  EXPECT_EQ(a.histograms.at("h").total(), 1u);  // sources untouched
}

TEST(MetricsSnapshotTest, MergeRejectsHistogramShapeMismatch) {
  MetricsSnapshot a, b;
  a.histograms.emplace("h", Histogram(0.0, 4.0, 4)).first->second.add(1.0);
  b.histograms.emplace("h", Histogram(0.0, 4.0, 8)).first->second.add(1.0);
  EXPECT_THROW(a.merge(b), InvariantError);
}

TEST(MetricsSnapshotTest, LabeledMetricComposesDottedNames) {
  EXPECT_EQ(labeled_metric("serve.stream", 0, "records"),
            "serve.stream.0.records");
  EXPECT_EQ(labeled_metric("serve.stream", 17, "stale"),
            "serve.stream.17.stale");
}

TEST(MetricsSnapshotTest, TableIsNameSortedAndStable) {
  MetricsSnapshot snap;
  snap.counters["z"] = 1;
  snap.counters["a"] = 2;
  snap.gauges["m"] = 0.5;
  const Table t = snap.table();
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 0), "a");
  EXPECT_EQ(t.at(1, 0), "z");
  EXPECT_EQ(t.at(2, 0), "m");
  // Same content twice → same bytes (the determinism tests rely on this).
  const MetricsSnapshot copy = snap;
  EXPECT_EQ(snap.csv(), copy.csv());
}

TEST(MetricsSnapshotTest, TableSummarizesAHistogramInOneCell) {
  MetricsSnapshot snap;
  Histogram& h =
      snap.histograms.emplace("d", Histogram(0.0, 1000.0, 50)).first->second;
  h.add(-1.0);
  h.add(12.5);
  h.add(1000.0);
  EXPECT_EQ(snap.csv(),
            "name,kind,value\n"
            "d,histogram,\"total=3 bins=50 range=[0, 1000) under=1 "
            "over=1\"\n");
}

}  // namespace
}  // namespace psn
