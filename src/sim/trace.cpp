#include "sim/trace.hpp"

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>

#include "common/error.hpp"

namespace psn::sim {

namespace {
/// Rank of a record within its (at, seq) bucket: the message lifecycle.
int co_instant_group(TraceKind k) {
  switch (k) {
    case TraceKind::kSend:
    case TraceKind::kDrop:
    case TraceKind::kUnreachable:
      return 0;
    case TraceKind::kSense:
      return 1;
    case TraceKind::kDeliver:
      return 2;
    case TraceKind::kReceive:
      return 3;
    case TraceKind::kDetect:
      return 4;
    case TraceKind::kCrash:
    case TraceKind::kRestart:
    case TraceKind::kPartition:
    case TraceKind::kHeal:
      // Fault-plan records carry seq 0, so this ranks them ahead of every
      // message record at their instant (and ahead of co-instant detects).
      return -1;
  }
  return 5;
}

auto canonical_key(const TraceRecord& r) {
  return std::make_tuple(r.at, r.seq, co_instant_group(r.kind), r.peer, r.pid,
                         static_cast<int>(r.kind));
}

bool canonical_less(const TraceRecord& a, const TraceRecord& b) {
  return canonical_key(a) < canonical_key(b);
}

bool earlier(const TraceRecord& a, const TraceRecord& b) { return a.at < b.at; }
}  // namespace

void canonical_trace_order(std::vector<TraceRecord>& records) {
  const auto pos = [&records](std::size_t i) {
    return records.begin() + static_cast<std::ptrdiff_t>(i);
  };
  // Start offsets of the maximal runs nondecreasing in `at`, plus the end.
  std::vector<std::size_t> bounds{0};
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].at < records[i - 1].at) bounds.push_back(i);
  }
  bounds.push_back(records.size());
  // Merge neighbouring runs pairwise until one is left. Merging only
  // neighbours, left run first on ties, keeps every equal-`at` bucket in
  // input order — what a stable sort on the full key starts from.
  while (bounds.size() > 2) {
    std::size_t kept = 1;
    std::size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      std::inplace_merge(pos(bounds[r]), pos(bounds[r + 1]),
                         pos(bounds[r + 2]), earlier);
      bounds[kept++] = bounds[r + 2];
    }
    if (r + 1 < bounds.size()) bounds[kept++] = bounds[r + 1];
    bounds.resize(kept);
  }
  // Order each co-instant bucket by the rest of the key, stably.
  for (auto first = records.begin(); first != records.end();) {
    const auto last = std::find_if(
        first + 1, records.end(),
        [&first](const TraceRecord& r) { return r.at != first->at; });
    if (!std::is_sorted(first, last, canonical_less)) {
      std::stable_sort(first, last, canonical_less);
    }
    first = last;
  }
}

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kSense: return "sense";
    case TraceKind::kSend: return "send";
    case TraceKind::kReceive: return "receive";
    case TraceKind::kDeliver: return "deliver";
    case TraceKind::kDrop: return "drop";
    case TraceKind::kUnreachable: return "unreachable";
    case TraceKind::kDetect: return "detect";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kRestart: return "restart";
    case TraceKind::kPartition: return "partition";
    case TraceKind::kHeal: return "heal";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity) : capacity_(capacity) {
  PSN_CHECK(capacity_ > 0, "trace capacity must be positive");
}

void TraceRecorder::on_full(const TraceRecord& r) {
  if (drain_) {
    drain_();
    if (ring_.size() > capacity_ / 2) capacity_ *= 2;
    ring_.push_back(r);
    return;
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % capacity_;
  evicted_++;
}

void TraceRecorder::drain_when_full(std::function<void()> drain) {
  drain_ = std::move(drain);
}

void TraceRecorder::drain_before(SimTime cut, std::vector<TraceRecord>& out) {
  PSN_CHECK(evicted_ == 0, "a trace ring that evicted records cannot drain");
  const auto end = std::partition_point(
      ring_.begin(), ring_.end(),
      [cut](const TraceRecord& r) { return r.at < cut; });
  out.insert(out.end(), ring_.begin(), end);
  ring_.erase(ring_.begin(), end);
}

void TraceRecorder::reserve(std::size_t records) {
  ring_.reserve(std::min(records, capacity_));
}

std::vector<TraceRecord> TraceRecorder::take() {
  std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
              ring_.end());
  head_ = 0;
  return std::exchange(ring_, {});
}

}  // namespace psn::sim
