#include "common/table.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn {
namespace {

TEST(TableTest, BuildsRowsInOrder) {
  Table t({"a", "b"});
  t.row().cell("x").cell(std::int64_t{1});
  t.row().cell("y").cell(std::int64_t{2});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0), "x");
  EXPECT_EQ(t.at(1, 1), "2");
  EXPECT_THROW((void)t.at(0, 2), InvariantError);  // two columns
}

TEST(TableTest, DoubleFormatting) {
  Table t({"v"});
  t.row().cell(3.14159, 3);
  EXPECT_EQ(t.at(0, 0), "3.14");
}

TEST(TableTest, RejectsOverfullRow) {
  Table t({"only"});
  t.row().cell("ok");
  EXPECT_THROW(t.cell("too many"), InvariantError);
}

TEST(TableTest, RejectsNewRowWhenPreviousIncomplete) {
  Table t({"a", "b"});
  t.row().cell("x");
  EXPECT_THROW(t.row(), InvariantError);
}

TEST(TableTest, CellBeforeRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), InvariantError);
}

TEST(TableTest, AsciiAlignsColumns) {
  Table t({"name", "n"});
  t.row().cell("short").cell(std::int64_t{1});
  t.row().cell("a much longer name").cell(std::int64_t{22});
  const std::string art = t.ascii();
  // Header, rule, two data rows.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  // All lines equally wide.
  std::size_t first_len = art.find('\n');
  std::size_t pos = first_len + 1;
  while (pos < art.size()) {
    const std::size_t next = art.find('\n', pos);
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.row().cell("has,comma").cell("has\"quote");
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableTest, CsvPlainValuesUnquoted) {
  Table t({"a"});
  t.row().cell("plain");
  EXPECT_EQ(t.csv(), "a\nplain\n");
}

TEST(TableTest, EmptyColumnsRejected) {
  EXPECT_THROW(Table({}), InvariantError);
}

}  // namespace
}  // namespace psn
