#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace psn {

/// An attribute name or trace note as a 4-byte handle into a process-wide,
/// append-only table that stores each distinct string once; handle 0 is the
/// empty name. Building a Name interns its string (a lock and a hash
/// lookup), so callers resolve each name once; reading str() takes no lock.
/// Both are safe from any thread. Parsers never intern (the table is
/// capped), and a handle depends on interning order, so it never orders
/// anything or reaches an output (DESIGN.md §11).
class Name {
 public:
  /// Distinct non-empty names the table holds; interning one more fails a
  /// PSN_CHECK rather than growing without bound.
  static constexpr std::uint32_t kCapacity = (1u << 16) - 1;

  Name() = default;
  // Implicit on purpose: records and events are built from literals.
  Name(std::string_view name);
  Name(const std::string& name) : Name(std::string_view(name)) {}
  Name(const char* name) : Name(std::string_view(name)) {}

  bool empty() const { return id_ == 0; }
  /// The interned string; empty for handle 0. Valid for the process's life.
  std::string_view str() const;

  /// Equal names always get equal handles.
  friend bool operator==(Name a, Name b) { return a.id_ == b.id_; }
  /// Comparing with text would intern it; compare str() instead.
  friend bool operator==(Name, std::string_view) = delete;

  /// Distinct non-empty names interned so far in this process.
  static std::size_t table_size();

 private:
  std::uint32_t id_ = 0;
};

}  // namespace psn
