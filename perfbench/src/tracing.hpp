#pragma once

// Per-layer timing from outside the program: pure-forwarding decorators of
// the four boundaries a fleet run crosses (core::ManagedSystem,
// pred::SymptomPredictor, pred::EventPredictor, act::Action), plus the
// round clock the end-to-end round latency is read from.
//
// Every decorator forwards every virtual to the wrapped object and changes
// no argument and no result, so a traced fleet computes exactly what the
// untraced one does (the benchmark checks this on every run by comparing
// sim-time fingerprints). Timing is self time: a call made while another
// timed call is open on the same thread (an action's system hooks, for
// instance) belongs to the outer call.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "actions/action.hpp"
#include "core/managed_system.hpp"
#include "membership/membership_plan.hpp"
#include "prediction/predictor.hpp"

namespace pfm::perfbench {

using Clock = std::chrono::steady_clock;

/// What one layer did: wall seconds inside its calls, the calls, the items
/// they covered (batch sizes for predictors) and the calls that failed.
struct LayerTally {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t faults = 0;

  LayerTally& operator+=(const LayerTally& o) noexcept {
    seconds += o.seconds;
    calls += o.calls;
    items += o.items;
    faults += o.faults;
    return *this;
  }
};

/// Accumulates LayerTallies per slot without sharing a cache line between
/// threads: each thread that records gets its own row, registered once
/// under a mutex; totals are summed after the run.
class Ledger {
 public:
  /// Slots 0..kFirstPredictor-1 are fixed; predictor p records into
  /// kFirstPredictor + p.
  enum Slot : std::size_t {
    kStep = 0,      ///< ManagedSystem::step_to (the simulator)
    kHooks = 1,     ///< countermeasure hooks called by the fleet itself
    kAct = 2,       ///< Action::execute
    kFactory = 3,   ///< membership NodeFactory
    kFirstPredictor = 4,
  };

  explicit Ledger(std::size_t predictors);
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  void add(std::size_t slot, double seconds, std::uint64_t items,
           bool fault) noexcept;
  /// Sum over threads. Call only while no decorated call is running.
  LayerTally total(std::size_t slot) const;

 private:
  std::vector<LayerTally>& row();

  std::uint64_t id_;
  std::size_t slots_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<LayerTally>>> rows_;
};

/// RAII self-time span: records into `ledger` (when non-null) only if no
/// other span is open on this thread. Call fail() before an exception
/// leaves the span to count the call as failed.
class Span {
 public:
  Span(Ledger* ledger, std::size_t slot, std::uint64_t items = 1) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void fail() noexcept { fault_ = true; }

 private:
  Ledger* ledger_;
  std::size_t slot_;
  std::uint64_t items_;
  bool outer_;
  bool fault_ = false;
  Clock::time_point start_;
};

/// Process CPU time in nanoseconds (CLOCK_PROCESS_CPUTIME_ID).
std::int64_t process_cpu_ns() noexcept;

/// Host time of each fleet round, observed at the node boundary. A round
/// is one epoch of the event-driven scheduler (epoch_ticks evaluation
/// intervals). The first node step aimed into round r stamps r's start;
/// the round ends where the next round with any step starts (the last one
/// where the run ends), so every round's time includes its barrier,
/// dispatch and controller work.
///
/// Every step of epoch r aims into round r, except a node's last step,
/// capped at its horizon, and the steps of a node whose clock lags (a
/// stalled one). Those aim into earlier rounds and never stamp one: only a
/// round later than every stamped round is stamped, so the stamps are in
/// order. Under an adaptive schedule an epoch may step no node at all
/// (every node backed off); its time then belongs to the round before it.
///
/// Stamps are process CPU time. In a single-threaded run, which never
/// blocks, that is wall time minus the time the host took the CPU away;
/// on a shared host those gaps come in bursts of milliseconds that would
/// otherwise make up the tail of the distribution. (With several threads
/// the stamps add up every thread's time and are not a latency.) Costs
/// one relaxed atomic load per node step once the round is stamped.
class RoundClock {
 public:
  /// `last_step` is the latest fleet time a node step may target.
  RoundClock(double round_seconds, double last_step);
  RoundClock(const RoundClock&) = delete;
  RoundClock& operator=(const RoundClock&) = delete;

  /// Called at the start of a node step towards sim time `target`.
  void mark(double target) noexcept;
  /// Per-round milliseconds, in round order, closing the last round at
  /// process CPU time `end_ns`.
  std::vector<double> round_ms(std::int64_t end_ns) const;

 private:
  double round_seconds_;
  std::vector<std::atomic<std::int64_t>> first_ns_;
  std::atomic<std::int64_t> latest_{-1};  ///< latest stamped round
};

/// Decorator of a managed system. With a null ledger it only feeds the
/// round clock (the timed runs); with a ledger it also times step_to and
/// the countermeasure hooks. `clock_offset` is the fleet time at which the
/// system's own clock reads 0 (a joiner's join time); the round clock is
/// marked in fleet time.
class TracedSystem final : public core::ManagedSystem {
 public:
  TracedSystem(std::unique_ptr<core::ManagedSystem> inner, Ledger* ledger,
               RoundClock* clock, double clock_offset = 0.0)
      : inner_(std::move(inner)), ledger_(ledger), clock_(clock),
        clock_offset_(clock_offset) {}

  std::string name() const override { return inner_->name(); }
  double now() const override { return inner_->now(); }
  double horizon() const override { return inner_->horizon(); }
  bool finished() const override { return inner_->finished(); }
  void step_to(double t) override;
  const mon::MonitoringDataset& trace() const override {
    return inner_->trace();
  }
  core::SchedulingHint scheduling_hint() const override {
    return inner_->scheduling_hint();
  }
  std::size_t num_units() const override { return inner_->num_units(); }
  core::UnitHealth unit_health(std::size_t unit) const override {
    return inner_->unit_health(unit);
  }
  double offered_load() const override { return inner_->offered_load(); }
  double unit_capacity() const override { return inner_->unit_capacity(); }
  bool service_down() const override { return inner_->service_down(); }
  void restart_unit(std::size_t unit) override;
  void shed_load(double fraction, double duration) override;
  void checkpoint() override;
  void prepare_for_failure(double window) override;
  void prepare_for_drain() override;
  core::SystemStats system_stats() const override {
    return inner_->system_stats();
  }

 private:
  std::unique_ptr<core::ManagedSystem> inner_;
  Ledger* ledger_;
  RoundClock* clock_;
  double clock_offset_;
};

/// Decorator of a trained symptom predictor; times every scoring entry
/// point into Ledger slot kFirstPredictor + index. A batch that throws or
/// returns a non-finite score counts as a fault.
class TracedSymptomPredictor final : public pred::SymptomPredictor {
 public:
  TracedSymptomPredictor(std::shared_ptr<const pred::SymptomPredictor> inner,
                         Ledger* ledger, std::size_t index)
      : inner_(std::move(inner)), ledger_(ledger),
        slot_(Ledger::kFirstPredictor + index) {}

  std::string name() const override { return inner_->name(); }
  void train(const mon::MonitoringDataset& data) override;
  double score(const pred::SymptomContext& context) const override;
  void score_batch(std::span<const pred::SymptomContext> contexts,
                   std::span<double> out) const override;
  void score_batch(std::span<const pred::SymptomContext> contexts,
                   std::span<double> out,
                   pred::BatchScratch& scratch) const override;

 private:
  std::shared_ptr<const pred::SymptomPredictor> inner_;
  Ledger* ledger_;
  std::size_t slot_;
};

/// Event-predictor counterpart of TracedSymptomPredictor.
class TracedEventPredictor final : public pred::EventPredictor {
 public:
  TracedEventPredictor(std::shared_ptr<const pred::EventPredictor> inner,
                       Ledger* ledger, std::size_t index)
      : inner_(std::move(inner)), ledger_(ledger),
        slot_(Ledger::kFirstPredictor + index) {}

  std::string name() const override { return inner_->name(); }
  void train(std::span<const mon::ErrorSequence> failure_sequences,
             std::span<const mon::ErrorSequence> nonfailure_sequences) override;
  double score(const mon::ErrorSequence& sequence) const override;
  void score_batch(std::span<const mon::ErrorSequence> sequences,
                   std::span<double> out) const override;
  void score_batch(std::span<const mon::ErrorSequence> sequences,
                   std::span<double> out,
                   pred::BatchScratch& scratch) const override;

 private:
  std::shared_ptr<const pred::EventPredictor> inner_;
  Ledger* ledger_;
  std::size_t slot_;
};

/// Decorator of a countermeasure; times execute() into Ledger::kAct and
/// counts an execute() that throws as a fault.
class TracedAction final : public act::Action {
 public:
  TracedAction(std::unique_ptr<act::Action> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  std::string name() const override { return inner_->name(); }
  act::ActionKind kind() const override { return inner_->kind(); }
  const act::ActionProperties& properties() const override {
    return inner_->properties();
  }
  bool applicable(const core::ManagedSystem& system) const override {
    return inner_->applicable(system);
  }
  void execute(core::ManagedSystem& system, double confidence) override;

 private:
  std::unique_ptr<act::Action> inner_;
  Ledger* ledger_;
};

/// Wraps an action factory so each action it makes is a TracedAction.
std::function<std::unique_ptr<act::Action>()> trace_action_factory(
    std::function<std::unique_ptr<act::Action>()> factory, Ledger* ledger);

/// Wraps a membership factory: the factory call is timed into
/// Ledger::kFactory and the joiner is wrapped in a TracedSystem whose
/// clock offset is the join time (the joiner's clock starts at 0).
membership::NodeFactory trace_node_factory(membership::NodeFactory factory,
                                           Ledger* ledger, RoundClock* clock);

}  // namespace pfm::perfbench
