#include "analysis/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace psn::analysis {
namespace {

using namespace psn::time_literals;

SimTime t(std::int64_t ms) { return SimTime::zero() + Duration::millis(ms); }

core::Detection detection(std::int64_t at_ms, std::size_t update_index) {
  core::Detection d;
  d.detected_at = t(at_ms);
  d.to_true = true;
  d.borderline = true;
  d.cause_true_time = t(at_ms - 50);
  d.update_index = update_index;
  return d;
}

TEST(ExportTest, DetectionsTable) {
  const Table table = detections_table({detection(300, 9)});
  EXPECT_EQ(table.at(0, 1), "1");
  EXPECT_EQ(table.at(0, 2), "1");
  EXPECT_EQ(table.at(0, 4), "9");
}

TEST(ExportTest, CsvRoundTripThroughFile) {
  const Table table = detections_table({detection(300, 1), detection(900, 2)});

  const std::string path = "/tmp/psn_export_roundtrip_test.csv";
  table.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string contents = buf.str();
  EXPECT_EQ(contents, table.csv());
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), 3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psn::analysis
