#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace psn {

/// Row-oriented results table with aligned ASCII rendering and CSV export.
/// Benchmarks use it to print the rows each experiment regenerates.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Starts a new row; subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 4);
  Table& cell(std::int64_t value);
  Table& cell(std::size_t value);
  Table& cell(int value);

  std::size_t num_rows() const { return rows_.size(); }
  const std::string& at(std::size_t row, std::size_t col) const;

  /// Aligned fixed-width rendering with a header rule.
  std::string ascii() const;
  /// RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  std::string csv() const;
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const Table& t);

}  // namespace psn
