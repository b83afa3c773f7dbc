#include "common/name.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace psn {
namespace {

TEST(NameTest, InternsEqualNamesToEqualHandles) {
  const Name entered("entered");
  EXPECT_FALSE(entered.empty());
  EXPECT_EQ(entered.str(), "entered");
  EXPECT_TRUE(Name(std::string("entered")) == entered);
  EXPECT_TRUE(Name(std::string_view("entered")) == entered);
  EXPECT_FALSE(Name("exited") == entered);
  // The empty name is handle 0 and takes no table entry.
  const std::size_t size = Name::table_size();
  EXPECT_TRUE(Name("").empty());
  EXPECT_TRUE(Name("") == Name());
  EXPECT_EQ(Name().str(), "");
  EXPECT_EQ(Name::table_size(), size);
}

TEST(NameDeathTest, InterningPastTheCapacityFails) {
  // In a forked child, so the filled table dies with it.
  EXPECT_EXIT(
      {
        try {
          for (std::uint32_t i = 0; i <= Name::kCapacity; ++i) {
            Name("cap-" + std::to_string(i));
          }
        } catch (const InvariantError& e) {
          std::fputs(e.what(), stderr);
          std::exit(3);
        }
        std::exit(0);
      },
      testing::ExitedWithCode(3), "name table full");
}

}  // namespace
}  // namespace psn
