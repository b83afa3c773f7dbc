#include "analysis/energy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::analysis {

namespace {
constexpr double kRadioBytesPerSecond = 250'000.0 / 8.0;  // 250 kbit/s
}

EnergyBreakdown fleet_energy(const EnergyModel& model, Duration duration,
                             std::size_t nodes, std::size_t bytes_sent,
                             std::size_t bytes_received,
                             const std::optional<net::DutyCycle>& duty) {
  PSN_CHECK(duration > Duration::zero(), "duration must be positive");
  PSN_CHECK(nodes > 0, "fleet must be non-empty");

  EnergyBreakdown e;
  e.tx_mj = model.tx_nj(bytes_sent) * 1e-6;
  e.rx_mj = model.rx_nj(bytes_received) * 1e-6;

  const double seconds = duration.to_seconds();
  const double awake_fraction = duty ? duty->duty_fraction() : 1.0;
  const double fleet_awake_s =
      seconds * awake_fraction * static_cast<double>(nodes);
  const double rx_busy_s =
      static_cast<double>(bytes_received) / kRadioBytesPerSecond;
  const double listen_s = std::max(0.0, fleet_awake_s - rx_busy_s);
  e.listen_mj = model.listen_mw * listen_s;  // mW × s = mJ

  const double fleet_sleep_s =
      seconds * (1.0 - awake_fraction) * static_cast<double>(nodes);
  e.sleep_mj = model.sleep_uw * 1e-3 * fleet_sleep_s;  // µW × s = µJ → mJ
  return e;
}

}  // namespace psn::analysis
