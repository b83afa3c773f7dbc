#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "clocks/clock_bundle.hpp"
#include "clocks/timestamp.hpp"
#include "common/name.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "world/event.hpp"

namespace psn::net {

/// Message classes in the network plane. The paper distinguishes *semantic*
/// computation messages (whose send/receive events drive the causal clocks)
/// from *control* messages — strobes — which must not (paper §4.2.3 point
/// 3). Clock-synchronization traffic is modelled analytically
/// (clocks/sync_protocols), never sent.
enum class MessageKind : std::uint8_t {
  kComputation,  ///< application send/receive (s/r events)
  kStrobe,       ///< strobe-clock control broadcast (SSC1/SVC1 output)
  kActuation,    ///< command from detector to an actuator node
};

const char* to_string(MessageKind k);

/// Which single time-model implementation a deployment actually puts on the
/// wire. The simulation always carries every stamp in one strobe broadcast
/// (so all detectors can be scored on the same run — paired comparison), but
/// a *real* node would serialize only its own mode's timestamp. Byte
/// accounting (experiment E7, "this service is not for free") must therefore
/// charge the active mode, not the fattest payload: the transport is told
/// the mode and prices every strobe with the matching wire_bytes_*_mode().
enum class ClockMode : std::uint8_t {
  kScalarStrobe,  ///< O(1) strobe scalar stamp + pid
  kVectorStrobe,  ///< O(n) strobe vector stamp + pid
  kPhysical,      ///< ε-synchronized physical timestamp
};

const char* to_string(ClockMode m);

/// Payload of a strobe broadcast. One broadcast serves every detector under
/// comparison: it carries the sensed update plus the stamps of *all* time
/// models, so a single simulated execution can be scored per model. Per-model
/// wire-size accounting (experiment E7) therefore uses the helpers below, not
/// the in-memory size.
struct SenseReportPayload {
  // --- the sensed update ---
  world::ObjectId object = world::kNoObject;
  Name attribute;
  world::AttributeValue value;

  // --- timestamps a real node could attach ---
  clocks::ScalarStamp strobe_scalar;
  clocks::VectorStamp strobe_vector;
  SimTime synced_timestamp;  ///< ε-synchronized clock reading at the sense

  // --- ground-truth metadata, for scoring only (never read by detectors) ---
  SimTime true_sense_time;
  world::WorldEventIndex world_event = world::kNoWorldEvent;

  /// Bytes on the wire if the deployment ran only the scalar-strobe protocol.
  std::size_t wire_bytes_scalar_mode() const;
  /// Bytes if it ran only the vector-strobe protocol.
  std::size_t wire_bytes_vector_mode() const;
  /// Bytes if it ran only physical-clock timestamping.
  std::size_t wire_bytes_physical_mode() const;
};

/// Payload of an application (semantic) message.
struct ComputationPayload {
  clocks::PiggybackStamps stamps;
  std::string tag;  ///< application-defined content marker
  std::size_t body_bytes = 16;

  std::size_t wire_bytes() const;
};

/// Payload of an actuation command (detector → actuator; paper §2.2: "if
/// the predicate is satisfied, a message send event is also triggered to
/// actuate one or multiple sensor/actuator nodes to output to the
/// environment objects"). The receiving node applies `value` to the named
/// world attribute — an a-event.
struct ActuationPayload {
  std::string command;
  SimTime issued_at;
  world::ObjectId object = world::kNoObject;
  Name attribute;
  world::AttributeValue value;
};

using Payload =
    std::variant<SenseReportPayload, ComputationPayload, ActuationPayload>;

/// Immutable, shared message payload (DESIGN.md §11). A payload is stamped
/// exactly once — when the sender assigns it — and every copy of the Message
/// afterwards (broadcast fan-out, scheduled delivery closures, retained test
/// copies) shares the same heap cell instead of deep-copying the variant. An
/// N-process strobe broadcast therefore performs one VectorStamp allocation,
/// not N. Immutability is what makes the sharing sound: nothing downstream
/// of the stamp may mutate the payload (the const in shared_ptr<const
/// Payload> enforces it).
///
/// Assignment from a payload struct (`msg.payload = report;`) keeps every
/// pre-existing call site working; it is the one place the allocation
/// happens.
class SharedPayload {
 public:
  SharedPayload() = default;
  SharedPayload(SenseReportPayload p)  // NOLINT(google-explicit-constructor)
      : p_(std::make_shared<const Payload>(std::move(p))) {}
  SharedPayload(ComputationPayload p)  // NOLINT(google-explicit-constructor)
      : p_(std::make_shared<const Payload>(std::move(p))) {}
  SharedPayload(ActuationPayload p)  // NOLINT(google-explicit-constructor)
      : p_(std::make_shared<const Payload>(std::move(p))) {}

  bool has_value() const { return p_ != nullptr; }
  const Payload& variant() const { return *p_; }

  template <class T>
  bool holds() const {
    return p_ != nullptr && std::holds_alternative<T>(*p_);
  }
  template <class T>
  const T& get() const {
    return std::get<T>(*p_);
  }

 private:
  std::shared_ptr<const Payload> p_;
};

struct Message {
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;  ///< kNoProcess for broadcasts (fan-out copies set it)
  MessageKind kind = MessageKind::kComputation;
  /// Run-unique message identity, assigned by the transport (1, 2, …; 0 =
  /// never transmitted). Fan-out copies of one broadcast share the seq — it
  /// names the logical message, not the copy. The trace carries it on every
  /// send/deliver/drop record, which is what lets psn::check reconstruct
  /// exact send→receive edges even when deliveries reorder.
  std::uint64_t seq = 0;
  SimTime sent_at;       ///< true send time (set by transport)
  SimTime delivered_at;  ///< true delivery time (set by transport)
  SharedPayload payload;

  const SenseReportPayload& sense_report() const {
    return payload.get<SenseReportPayload>();
  }
  const ComputationPayload& computation() const {
    return payload.get<ComputationPayload>();
  }
  const ActuationPayload& actuation() const {
    return payload.get<ActuationPayload>();
  }
};

/// Nominal wire header: src, dst, kind, length.
inline constexpr std::size_t kWireHeaderBytes = 12;

/// On-the-wire size of `msg` when the deployment runs clock mode `mode`
/// (mode only affects strobe sense reports; computation and actuation
/// payloads are mode-independent).
std::size_t wire_bytes(const Message& msg, ClockMode mode);

}  // namespace psn::net
