#pragma once

#include <string>
#include <vector>

#include "core/sharded_system.hpp"
#include "world/world_model.hpp"

namespace psn::core {

/// Proximity sensing field: turns object *movement* into sensed boolean
/// presence variables, making the dynamically-changing graphs of the paper
/// (§2.1: L and C "are dynamically changing") detectable with the ordinary
/// predicate machinery.
///
/// Each sensor process is given a fixed position and sensing radius. For
/// every tracked mobile object, the field maintains one per-sensor world
/// variable  near_<object-name>  on a virtual "zone" object assigned to that
/// sensor: true while the object is within the sensor's radius. Entry/exit
/// transitions are genuine world events — sensed, stamped, strobed, and
/// scored exactly like any other attribute change, so predicates such as
///
///     near_zebra[1] && near_zebra[2]     (object in the overlap of 1 and 2)
///     count(near_zebra) ... or sum(near_zebra) >= 2
///
/// work unchanged.
class ProximityField {
 public:
  struct SensorZone {
    ProcessId sensor = kNoProcess;
    world::Point2D position;
    double radius = 10.0;
  };

  /// Registers the zones and subscribes to world movement. Must be created
  /// after the system and before run(). Zone objects are created in the
  /// world and assigned to their sensors.
  ProximityField(ShardedPervasiveSystem& system,
                 std::vector<SensorZone> zones);

  /// Starts tracking `object`; its presence variable is named
  /// "near_<object-name>". Emits the initial containment state immediately.
  void track(world::ObjectId object);

  std::size_t zones() const { return zones_.size(); }
  /// The virtual zone object of a sensor (for tests/diagnostics).
  world::ObjectId zone_object(ProcessId sensor) const;

  /// Ground truth: sensors whose radius currently contains the object.
  std::vector<ProcessId> sensors_in_range(world::ObjectId object) const;

 private:
  void on_move(world::ObjectId object, const world::Point2D& to);

  struct Tracked {
    world::ObjectId object = world::kNoObject;
    std::string variable;
    std::vector<bool> inside;  ///< per zone index
  };

  ShardedPervasiveSystem& system_;
  std::vector<SensorZone> zones_;
  std::vector<world::ObjectId> zone_objects_;
  std::vector<Tracked> tracked_;
};

}  // namespace psn::core
