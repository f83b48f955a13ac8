#include "core/mea.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pfm::core {

void ActEngine::add_action(std::unique_ptr<act::Action> action) {
  if (!action) throw std::invalid_argument("ActEngine: null action");
  actions_.push_back(std::move(action));
}

void ActEngine::set_observability(obs::Observability* hub,
                                  std::uint32_t track) {
  track_ = track;
  if (hub == nullptr) {
    tracer_ = nullptr;
    executed_total_ = nullptr;
    faults_total_ = nullptr;
    retries_total_ = nullptr;
    abandoned_total_ = nullptr;
    return;
  }
  tracer_ = hub->tracer();
  auto& metrics = hub->metrics();
  executed_total_ = &metrics.counter("pfm_actions_executed_total");
  faults_total_ = &metrics.counter("pfm_action_faults_total");
  retries_total_ = &metrics.counter("pfm_action_retries_total");
  abandoned_total_ = &metrics.counter("pfm_actions_abandoned_total");
}

void ActEngine::set_flight(obs::FlightRecorder* flight, std::size_t node) {
  flight_ = flight;
  flight_node_ = node;
}

bool ActEngine::try_execute(act::Action& action, ManagedSystem& system,
                            double score, MeaStats& stats) {
  const std::size_t k = static_cast<std::size_t>(action.kind());
  for (std::size_t attempt = 0; attempt < kActionMaxAttempts; ++attempt) {
    if (attempt > 0) {
      ++stats.action_retries;
      if (retries_total_ != nullptr) retries_total_->inc();
      obs::record_instant(tracer_, obs::SpanKind::kActionRetry, track_,
                          system.now(), static_cast<std::uint32_t>(attempt),
                          static_cast<std::int64_t>(k));
      if (flight_ != nullptr) {
        flight_->record_node(
            flight_node_,
            obs::FlightEvent{system.now(), obs::FlightEventKind::kActionRetry,
                             static_cast<std::uint32_t>(attempt),
                             static_cast<std::int64_t>(k), score});
      }
    }
    try {
      obs::ScopedSpan span(tracer_, obs::SpanKind::kActionExecute, track_,
                           system.now(), static_cast<std::uint32_t>(attempt),
                           static_cast<std::int64_t>(k));
      action.execute(system, score);
      span.set_sim_end(system.now());
      abandoned_streak_[k] = 0;
      backoff_until_[k] = -1e18;
      if (executed_total_ != nullptr) executed_total_->inc();
      if (flight_ != nullptr) {
        flight_->record_node(
            flight_node_,
            obs::FlightEvent{system.now(), obs::FlightEventKind::kAction,
                             static_cast<std::uint32_t>(attempt),
                             static_cast<std::int64_t>(k), score});
      }
      return true;
    } catch (const std::exception&) {
      ++stats.action_faults;
      if (faults_total_ != nullptr) faults_total_->inc();
    }
  }
  // All attempts failed: back the kind off exponentially in simulated
  // time, doubling per consecutive abandoned execution.
  ++stats.actions_abandoned;
  if (abandoned_total_ != nullptr) abandoned_total_->inc();
  if (flight_ != nullptr) {
    flight_->record_node(
        flight_node_,
        obs::FlightEvent{system.now(), obs::FlightEventKind::kActionAbandoned,
                         0, static_cast<std::int64_t>(k), score});
  }
  const double backoff =
      std::min(kActionBackoffInitial *
                   std::exp2(static_cast<double>(abandoned_streak_[k])),
               kActionBackoffMax);
  ++abandoned_streak_[k];
  backoff_until_[k] = system.now() + backoff;
  return false;
}

void ActEngine::act(ManagedSystem& system, double score,
                    const MeaConfig& config, MeaStats& stats) {
  const double now = system.now();
  auto cooled_down = [&](act::ActionKind kind) {
    const std::size_t k = static_cast<std::size_t>(kind);
    return now - last_action_time_[k] >= config.action_cooldown &&
           now >= backoff_until_[k];
  };
  auto record = [&](act::ActionKind kind) {
    last_action_time_[static_cast<std::size_t>(kind)] = now;
    ++stats.actions_by_kind[static_cast<std::size_t>(kind)];
  };

  // Downtime minimization: preparing for an anticipated failure is cheap
  // and safe, so it accompanies every warning (Table 1: "prepare repair").
  if (config.enable_minimization) {
    for (const auto& a : actions_) {
      if (a->goal() != act::ActionGoal::kDowntimeMinimization) continue;
      if (!a->applicable(system) || !cooled_down(a->kind())) continue;
      if (try_execute(*a, system, score, stats)) record(a->kind());
    }
  }

  // Downtime avoidance: pick the single most effective applicable action
  // by the objective function.
  if (config.enable_avoidance) {
    act::Action* best = nullptr;
    double best_score = 0.0;
    for (const auto& a : actions_) {
      if (a->goal() != act::ActionGoal::kDowntimeAvoidance) continue;
      if (!cooled_down(a->kind())) continue;
      if (!a->applicable(system)) continue;
      const double s = act::objective_score(*a, score, selector_.weights());
      if (s > best_score) {
        best_score = s;
        best = a.get();
      }
    }
    if (best != nullptr &&
        try_execute(*best, system, score, stats)) {
      record(best->kind());
    }
  }
}

}  // namespace pfm::core
