#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "common/sim_time.hpp"
#include "net/duty_cycle.hpp"

namespace psn::analysis {

/// First-order radio energy model for sensor nodes — the currency of the
/// paper's economic argument (§3.3 item 1: the synchronized-clock service
/// "may not be affordable (in terms of energy consumption), e.g., consider
/// the wild or remote terrain"). Defaults approximate a CC2420-class
/// 802.15.4 radio at 3 V: ~17–20 mA at 250 kbit/s for rx/tx, idle listening
/// nearly as expensive as receiving, deep sleep ~1 µA.
struct EnergyModel {
  double tx_nj_per_byte = 1700.0;    ///< transmit energy per byte (nJ)
  double rx_nj_per_byte = 1900.0;    ///< receive energy per byte (nJ)
  double listen_mw = 56.0;           ///< idle-listening power (mW)
  double sleep_uw = 3.0;             ///< sleep power (µW)

  /// Energy to transmit / receive a payload of `bytes` (nanojoules).
  double tx_nj(std::size_t bytes) const {
    return tx_nj_per_byte * static_cast<double>(bytes);
  }
  double rx_nj(std::size_t bytes) const {
    return rx_nj_per_byte * static_cast<double>(bytes);
  }
};

/// Energy breakdown of one node (or a fleet) over a run, in millijoules.
struct EnergyBreakdown {
  double tx_mj = 0.0;
  double rx_mj = 0.0;
  double listen_mj = 0.0;  ///< radio on, nothing received
  double sleep_mj = 0.0;

  double total_mj() const { return tx_mj + rx_mj + listen_mj + sleep_mj; }
};

/// Per-fleet radio energy over `duration`, given observed traffic:
///  - `bytes_sent` / `bytes_received`: totals across the fleet,
///  - `nodes`: fleet size,
///  - `duty`: the receivers' wake schedule (nullopt = always listening).
/// Listening time is the awake time not spent receiving (receive time is
/// approximated from bytes at 250 kbit/s).
EnergyBreakdown fleet_energy(const EnergyModel& model, Duration duration,
                             std::size_t nodes, std::size_t bytes_sent,
                             std::size_t bytes_received,
                             const std::optional<net::DutyCycle>& duty);

}  // namespace psn::analysis
