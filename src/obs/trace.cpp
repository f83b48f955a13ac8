#include "obs/trace.hpp"

#include <algorithm>
#include <tuple>

namespace pfm::obs {

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kMonitorStage: return "monitor_stage";
    case SpanKind::kEvaluateStage: return "evaluate_stage";
    case SpanKind::kActStage: return "act_stage";
    case SpanKind::kNodeStep: return "node_step";
    case SpanKind::kScoreBatch: return "score_batch";
    case SpanKind::kWarning: return "warning";
    case SpanKind::kActionExecute: return "action_execute";
    case SpanKind::kActionRetry: return "action_retry";
    case SpanKind::kBreakerTrip: return "breaker_trip";
    case SpanKind::kBreakerClose: return "breaker_close";
    case SpanKind::kQuarantine: return "quarantine";
    case SpanKind::kInjectedFault: return "injected_fault";
    case SpanKind::kMemberJoin: return "member_join";
    case SpanKind::kMemberLeave: return "member_leave";
    case SpanKind::kMemberHandoff: return "member_handoff";
    case SpanKind::kScaleUp: return "scale_up";
    case SpanKind::kDrainNode: return "drain_node";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(std::size_t shards, std::size_t capacity_per_shard)
    : capacity_(capacity_per_shard), rings_(shards > 0 ? shards : 1) {
  if (capacity_ > 0) {
    for (auto& ring : rings_) ring.spans.reserve(capacity_);
  }
}

void TraceRecorder::record(const Span& span) noexcept {
  if (capacity_ == 0) return;
  Ring& ring = rings_[shard_index()];
  ++ring.recorded;
  if (ring.spans.size() < capacity_) {
    ring.spans.push_back(span);
    return;
  }
  ring.spans[ring.next] = span;
  ring.next = (ring.next + 1) % capacity_;
  ++ring.dropped;
}

std::uint64_t TraceRecorder::recorded() const noexcept {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring.recorded;
  return total;
}

std::uint64_t TraceRecorder::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring.dropped;
  return total;
}

std::vector<Span> TraceRecorder::sorted_spans() const {
  std::vector<Span> out;
  std::size_t total = 0;
  for (const auto& ring : rings_) total += ring.spans.size();
  out.reserve(total);
  for (const auto& ring : rings_) {
    out.insert(out.end(), ring.spans.begin(), ring.spans.end());
  }
  // Deterministic sim-time key; wall_seconds deliberately excluded. The
  // key is a total order over distinct sim-content, so the sorted
  // sequence does not depend on which shard a span landed in.
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return std::make_tuple(a.sim_begin, a.track, static_cast<int>(a.kind),
                           a.sub, a.sim_end, a.arg) <
           std::make_tuple(b.sim_begin, b.track, static_cast<int>(b.kind),
                           b.sub, b.sim_end, b.arg);
  });
  return out;
}

void TraceRecorder::clear() noexcept {
  for (auto& ring : rings_) {
    ring.spans.clear();
    ring.next = 0;
    ring.recorded = 0;
    ring.dropped = 0;
  }
}

}  // namespace pfm::obs
