#include "core/proximity.hpp"

#include <utility>

#include "common/error.hpp"

namespace psn::core {

ProximityField::ProximityField(ShardedPervasiveSystem& system,
                               std::vector<SensorZone> zones)
    : system_(system), zones_(std::move(zones)) {
  PSN_CHECK(!zones_.empty(), "proximity field needs at least one zone");
  for (const auto& z : zones_) {
    PSN_CHECK(z.sensor >= 1 && z.sensor < system_.num_processes(),
              "zone must belong to a sensor process");
    PSN_CHECK(z.radius > 0.0, "zone radius must be positive");
    const auto obj = system_.world().create_object(
        "zone_" + std::to_string(z.sensor), z.position);
    zone_objects_.push_back(obj);
  }
  system_.world().add_move_sink(
      [this](world::ObjectId object, const world::Point2D& to) {
        on_move(object, to);
      });
}

world::ObjectId ProximityField::zone_object(ProcessId sensor) const {
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    if (zones_[i].sensor == sensor) return zone_objects_[i];
  }
  PSN_CHECK(false, "no zone for that sensor");
  return world::kNoObject;
}

void ProximityField::track(world::ObjectId object) {
  Tracked t;
  t.object = object;
  t.variable = "near_" + system_.world().object(object).name();
  t.inside.assign(zones_.size(), false);
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    system_.assign(zone_objects_[i], t.variable, zones_[i].sensor);
  }
  tracked_.push_back(std::move(t));
  // Publish the initial containment so sensors and oracle agree on t=0.
  on_move(object, system_.world().object(object).location());
}

std::vector<ProcessId> ProximityField::sensors_in_range(
    world::ObjectId object) const {
  std::vector<ProcessId> out;
  const auto& pos = system_.world().object(object).location();
  for (const auto& z : zones_) {
    if (z.position.distance_to(pos) <= z.radius) out.push_back(z.sensor);
  }
  return out;
}

void ProximityField::on_move(world::ObjectId object,
                             const world::Point2D& to) {
  for (auto& t : tracked_) {
    if (t.object != object) continue;
    for (std::size_t i = 0; i < zones_.size(); ++i) {
      const bool now = zones_[i].position.distance_to(to) <= zones_[i].radius;
      if (now == t.inside[i] &&
          system_.world().object(zone_objects_[i]).has_attribute(t.variable)) {
        continue;
      }
      t.inside[i] = now;
      system_.world().emit(zone_objects_[i], t.variable, now);
    }
  }
}

}  // namespace psn::core
