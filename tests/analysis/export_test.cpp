#include "analysis/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace psn::analysis {
namespace {

TEST(ExportTest, CsvRoundTripThroughFile) {
  Table table({"detected_s", "update_index"});
  table.row().cell(0.3, 9).cell(std::size_t{1});
  table.row().cell(0.9, 9).cell(std::size_t{2});

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
