#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/sensing.hpp"
#include "net/transport.hpp"
#include "sim/fault.hpp"
#include "sim/simulation.hpp"

namespace psn::core {

/// How one-hop message delay is distributed (paper §3.2.2).
enum class DelayKind {
  kSynchronous,     ///< Δ = 0
  kFixed,           ///< exactly `delta`
  kUniformBounded,  ///< uniform in [delta/10, delta] — Δ-bounded
  kExponential,     ///< mean `delta`, unbounded tail
};

using net::TopologyKind;

/// The deployment a run simulates — delay and loss models, wire clock mode,
/// topology, faults, duty cycling, validity horizon — declared once for
/// both the system (SystemConfig) and the occupancy experiment
/// (analysis::OccupancyConfig), which copies it across whole.
struct DeploymentConfig {
  DelayKind delay_kind = DelayKind::kUniformBounded;
  /// The Δ of the delay model (bound, mean, or fixed value by kind).
  Duration delta = Duration::millis(100);

  /// Clock mode the transport charges on the wire (per-mode E7 byte
  /// accounting). Default: vector strobes, the fattest option.
  net::ClockMode clock_mode = net::ClockMode::kVectorStrobe;

  /// Overlay topology. The city-scale scenario uses kStar (sensors report
  /// up to the mains-powered root).
  TopologyKind topology = TopologyKind::kComplete;

  /// Independent per-transmission loss probability (0 = lossless).
  double loss_probability = 0.0;
  /// Windows of total loss (E8 fault injection); combined with the above.
  std::vector<net::ScheduledBurstLoss::Window> loss_windows;

  /// Optional Gilbert–Elliott burst-loss channel, combined with the other
  /// loss sources. Its good/bad state advances per drop() call, so results
  /// depend on the global transmission order (use loss_windows for
  /// shard-stable bursts).
  struct GilbertElliottParams {
    double p_good_to_bad = 0.0;
    double p_bad_to_good = 0.0;
    double loss_in_good = 0.0;
    double loss_in_bad = 0.0;
  };
  std::optional<GilbertElliottParams> gilbert_elliott;

  /// Deterministic fault plan (sim/fault, DESIGN.md §15): process
  /// crash/restart windows, overlay partition windows, and clock-fault
  /// drift spikes. Empty = fault-free. Compiled once into a FaultSchedule
  /// shared by the transport and every sensor; core::validate checks it
  /// against the configured topology. Every injected fault emits trace records,
  /// and the checker's race audit attributes detector errors to them.
  sim::FaultPlan faults;

  /// Optional receiver duty cycling for the sensor nodes (paper §5: MAC-
  /// layer duty cycles in habitat monitoring; the A3 ablation). The root's
  /// radio is always on (it is the mains-powered back-end).
  std::optional<net::DutyCycle> duty_cycle;
  /// Synchronized duty cycles (all sensors share a phase) versus the
  /// unsynchronized baseline (per-node random phases).
  bool duty_phases_aligned = true;

  /// Per-channel FIFO (causal) delivery on the transport.
  bool fifo_channels = false;

  /// Temporal-validity policy stamped onto every received observation
  /// (Kopetz-Steiner validity intervals). Default: observations never
  /// expire, which reproduces the paper's original semantics exactly. When
  /// bounded, the incremental detector flags evaluations over expired state
  /// and the checker runs the validity-horizon contract.
  ValidityHorizon validity_horizon;
};

/// Everything needed to stand up one ⟨P, L, O, C⟩ system instance.
struct SystemConfig : DeploymentConfig {
  std::size_t num_sensors = 2;  ///< processes 1..num_sensors; P_0 is the root
  sim::SimConfig sim;
  clocks::ClockBundleConfig clock_config;
};

/// Factories mapping a deployment onto concrete network models — one
/// definition every shard of a ShardedPervasiveSystem (DESIGN.md §14) builds
/// from, so all shards assemble bit-identical planes from the same config.
std::unique_ptr<net::DelayModel> make_delay_model(
    const DeploymentConfig& config);
std::unique_ptr<net::LossModel> make_loss_model(const DeploymentConfig& config);

}  // namespace psn::core
