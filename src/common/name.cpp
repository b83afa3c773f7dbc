#include "common/name.hpp"

#include <array>
#include <atomic>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/error.hpp"

namespace psn {

namespace {
/// The strings by id: constant-initialised, so usable from any static
/// initialiser, and untouched pages cost no memory. Slot 0 stays null.
constinit std::array<std::atomic<const std::string*>, Name::kCapacity + 1>
    name_slots{};

/// The interning side, guarded by `mu`. A deque never moves its strings,
/// so `ids` keys views into `names`.
struct NameTable {
  std::mutex mu;
  std::deque<std::string> names;
  std::unordered_map<std::string_view, std::uint32_t> ids;
};

NameTable& name_table() {
  static NameTable table;
  return table;
}
}  // namespace

Name::Name(std::string_view name) {
  if (name.empty()) return;
  NameTable& t = name_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  if (const auto it = t.ids.find(name); it != t.ids.end()) {
    id_ = it->second;
    return;
  }
  PSN_CHECK(t.names.size() < kCapacity,
            "name table full: more than " + std::to_string(kCapacity) +
                " distinct names");
  const std::string& stored = t.names.emplace_back(name);
  id_ = static_cast<std::uint32_t>(t.names.size());
  t.ids.emplace(stored, id_);
  name_slots[id_].store(&stored, std::memory_order_release);
}

std::string_view Name::str() const {
  if (id_ == 0) return {};
  return *name_slots[id_].load(std::memory_order_acquire);
}

std::size_t Name::table_size() {
  NameTable& t = name_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  return t.names.size();
}

}  // namespace psn
