// The name table under concurrent interning: sweeps run experiments on N
// threads and shards run on worker threads, all interning into the one
// process-wide table. Run under -DPSN_SANITIZE=thread (label: par).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/name.hpp"
#include "common/rng.hpp"

namespace psn {
namespace {

TEST(NameParTest, ConcurrentInterningIsConsistent) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kShared = 200;
  constexpr std::size_t kOwn = 200;
  // Each thread interns every shared name and its own names, in its own
  // shuffled order, all threads starting together.
  std::vector<std::vector<std::string>> names(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kShared; ++i) {
      names[t].push_back("par-shared-" + std::to_string(i));
    }
    for (std::size_t i = 0; i < kOwn; ++i) {
      names[t].push_back("par-t" + std::to_string(t) + "-" + std::to_string(i));
    }
    Rng rng(t + 1);
    std::shuffle(names[t].begin(), names[t].end(), rng);
  }
  std::vector<std::vector<Name>> interned(kThreads);
  std::atomic<std::size_t> ready{0};
  {
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (const std::string& name : names[t]) {
          interned[t].emplace_back(name);
          // Reading back right away races only with other threads' appends.
          EXPECT_EQ(interned[t].back().str(), name);
        }
      });
    }
  }

  std::vector<std::pair<std::string, Name>> all;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < names[t].size(); ++i) {
      EXPECT_FALSE(interned[t][i].empty());
      EXPECT_EQ(interned[t][i].str(), names[t][i]);
      all.emplace_back(names[t][i], interned[t][i]);
    }
  }
  // Equal names got equal handles, and different names different ones.
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[i].first == all[i - 1].first,
              all[i].second == all[i - 1].second)
        << all[i - 1].first << " / " << all[i].first;
  }
  // Interning again from this thread finds the same handles.
  for (const auto& [name, note] : all) EXPECT_TRUE(Name(name) == note);
}

}  // namespace
}  // namespace psn
