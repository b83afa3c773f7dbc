#include "analysis/energy.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn::analysis {
namespace {

using namespace psn::time_literals;

TEST(EnergyModelTest, PerByteCosts) {
  EnergyModel m;
  EXPECT_DOUBLE_EQ(m.tx_nj(100), 170000.0);
  EXPECT_DOUBLE_EQ(m.rx_nj(100), 190000.0);
}

TEST(FleetEnergyTest, AlwaysOnIsDominatedByListening) {
  EnergyModel m;
  // 1 hour, 4 nodes, modest traffic, no duty cycling.
  const auto e = fleet_energy(m, Duration::seconds(3600), 4,
                              /*sent=*/100'000, /*recv=*/300'000,
                              std::nullopt);
  // Listening: ~4 × 3600 s × 56 mW ≈ 806 J ≫ tx+rx (< 1 J).
  EXPECT_GT(e.listen_mj, 700'000.0);
  EXPECT_LT(e.tx_mj + e.rx_mj, 1'000.0);
  EXPECT_DOUBLE_EQ(e.sleep_mj, 0.0);
  EXPECT_NEAR(e.total_mj(), e.listen_mj + e.tx_mj + e.rx_mj, 1e-6);
}

TEST(FleetEnergyTest, DutyCyclingSlashesListening) {
  EnergyModel m;
  net::DutyCycle dc;
  dc.period = 1000_ms;
  dc.window = 100_ms;  // 10% duty
  const auto on = fleet_energy(m, Duration::seconds(3600), 4, 100'000,
                               300'000, std::nullopt);
  const auto cycled = fleet_energy(m, Duration::seconds(3600), 4, 100'000,
                                   300'000, dc);
  EXPECT_NEAR(cycled.listen_mj / on.listen_mj, 0.1, 0.01);
  EXPECT_GT(cycled.sleep_mj, 0.0);
  // Sleep power is ~4 orders below listening: total drops ~10x.
  EXPECT_LT(cycled.total_mj(), on.total_mj() * 0.12);
}

TEST(FleetEnergyTest, ReceiveTimeDeductedFromListening) {
  EnergyModel m;
  m.listen_mw = 100.0;
  // 10 s, 1 node; 312500 bytes at 31250 B/s = 10 s of pure receiving:
  // listening time must collapse to ~0.
  const auto e = fleet_energy(m, Duration::seconds(10), 1, 0, 312'500,
                              std::nullopt);
  EXPECT_NEAR(e.listen_mj, 0.0, 1.0);
}

TEST(FleetEnergyTest, Validation) {
  EnergyModel m;
  EXPECT_THROW(fleet_energy(m, Duration::zero(), 1, 0, 0, std::nullopt),
               InvariantError);
  EXPECT_THROW(
      fleet_energy(m, Duration::seconds(1), 0, 0, 0, std::nullopt),
      InvariantError);
}

}  // namespace
}  // namespace psn::analysis
