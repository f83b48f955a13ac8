#include "tracing.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pfm::perfbench {

namespace {

std::atomic<std::uint64_t> g_next_ledger_id{1};

// The row this thread records into, cached per ledger identity so a
// ledger built later at a reused address never sees a stale row.
struct RowCache {
  std::uint64_t ledger_id = 0;
  std::vector<LayerTally>* row = nullptr;
};
thread_local RowCache t_row;
// Open spans on this thread; only the outermost one records.
thread_local int t_depth = 0;

constexpr std::int64_t kUnstamped = std::numeric_limits<std::int64_t>::max();

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

Ledger::Ledger(std::size_t predictors)
    : id_(g_next_ledger_id.fetch_add(1)), slots_(kFirstPredictor + predictors) {}

std::vector<LayerTally>& Ledger::row() {
  if (t_row.ledger_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(std::make_unique<std::vector<LayerTally>>(slots_));
    t_row.ledger_id = id_;
    t_row.row = rows_.back().get();
  }
  return *t_row.row;
}

void Ledger::add(std::size_t slot, double seconds, std::uint64_t items,
                 bool fault) noexcept {
  LayerTally& tally = row()[slot];
  tally.seconds += seconds;
  tally.calls += 1;
  tally.items += items;
  tally.faults += fault ? 1 : 0;
}

LayerTally Ledger::total(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  LayerTally sum;
  for (const auto& r : rows_) sum += r->at(slot);
  return sum;
}

Span::Span(Ledger* ledger, std::size_t slot, std::uint64_t items) noexcept
    : ledger_(ledger), slot_(slot), items_(items), outer_(t_depth == 0) {
  ++t_depth;
  if (ledger_ != nullptr && outer_) start_ = Clock::now();
}

Span::~Span() {
  --t_depth;
  if (ledger_ == nullptr || !outer_) return;
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start_).count();
  ledger_->add(slot_, seconds, items_, fault_);
}

std::int64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

RoundClock::RoundClock(double round_seconds, double last_step)
    : round_seconds_(round_seconds),
      first_ns_(static_cast<std::size_t>(std::ceil(last_step / round_seconds)) +
                1) {
  if (!(round_seconds > 0.0) || !(last_step > 0.0)) {
    throw std::invalid_argument("RoundClock: round and last step must be > 0");
  }
  for (auto& slot : first_ns_) slot.store(kUnstamped, std::memory_order_relaxed);
}

void RoundClock::mark(double target) noexcept {
  // A step towards the end of tick k targets (k + 1) * interval; nudge
  // below the boundary so that step lands in the round holding tick k.
  const double pos = std::floor(target / round_seconds_ - 1e-9);
  const std::size_t r = std::min(
      first_ns_.size() - 1, static_cast<std::size_t>(std::max(0.0, pos)));
  const auto round = static_cast<std::int64_t>(r);
  std::int64_t latest = latest_.load(std::memory_order_relaxed);
  if (round <= latest) return;
  auto& slot = first_ns_[r];
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  const std::int64_t now = process_cpu_ns();
  while (now < seen &&
         !slot.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
  while (latest < round && !latest_.compare_exchange_weak(
                               latest, round, std::memory_order_relaxed)) {
  }
}

std::vector<double> RoundClock::round_ms(std::int64_t end_ns) const {
  std::vector<std::int64_t> starts;
  for (const auto& slot : first_ns_) {
    const std::int64_t v = slot.load(std::memory_order_relaxed);
    if (v != kUnstamped) starts.push_back(v);
  }
  std::vector<double> out;
  out.reserve(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::int64_t next = i + 1 < starts.size() ? starts[i + 1] : end_ns;
    out.push_back(static_cast<double>(next - starts[i]) * 1e-6);
  }
  return out;
}

void TracedSystem::step_to(double t) {
  if (clock_ != nullptr) clock_->mark(clock_offset_ + t);
  Span span(ledger_, Ledger::kStep);
  try {
    inner_->step_to(t);
  } catch (...) {
    span.fail();
    throw;
  }
}

void TracedSystem::restart_unit(std::size_t unit) {
  Span span(ledger_, Ledger::kHooks);
  inner_->restart_unit(unit);
}

void TracedSystem::shed_load(double fraction, double duration) {
  Span span(ledger_, Ledger::kHooks);
  inner_->shed_load(fraction, duration);
}

void TracedSystem::checkpoint() {
  Span span(ledger_, Ledger::kHooks);
  inner_->checkpoint();
}

void TracedSystem::prepare_for_failure(double window) {
  Span span(ledger_, Ledger::kHooks);
  inner_->prepare_for_failure(window);
}

void TracedSystem::prepare_for_drain() {
  Span span(ledger_, Ledger::kHooks);
  inner_->prepare_for_drain();
}

void TracedSymptomPredictor::train(const mon::MonitoringDataset&) {
  throw std::logic_error("TracedSymptomPredictor: wrap after training");
}

double TracedSymptomPredictor::score(const pred::SymptomContext& context) const {
  Span span(ledger_, slot_);
  try {
    const double v = inner_->score(context);
    if (!std::isfinite(v)) span.fail();
    return v;
  } catch (...) {
    span.fail();
    throw;
  }
}

void TracedSymptomPredictor::score_batch(
    std::span<const pred::SymptomContext> contexts,
    std::span<double> out) const {
  Span span(ledger_, slot_, contexts.size());
  try {
    inner_->score_batch(contexts, out);
  } catch (...) {
    span.fail();
    throw;
  }
  if (!all_finite(out)) span.fail();
}

void TracedSymptomPredictor::score_batch(
    std::span<const pred::SymptomContext> contexts, std::span<double> out,
    pred::BatchScratch& scratch) const {
  Span span(ledger_, slot_, contexts.size());
  try {
    inner_->score_batch(contexts, out, scratch);
  } catch (...) {
    span.fail();
    throw;
  }
  if (!all_finite(out)) span.fail();
}

void TracedEventPredictor::train(std::span<const mon::ErrorSequence>,
                                 std::span<const mon::ErrorSequence>) {
  throw std::logic_error("TracedEventPredictor: wrap after training");
}

double TracedEventPredictor::score(const mon::ErrorSequence& sequence) const {
  Span span(ledger_, slot_);
  try {
    const double v = inner_->score(sequence);
    if (!std::isfinite(v)) span.fail();
    return v;
  } catch (...) {
    span.fail();
    throw;
  }
}

void TracedEventPredictor::score_batch(
    std::span<const mon::ErrorSequence> sequences,
    std::span<double> out) const {
  Span span(ledger_, slot_, sequences.size());
  try {
    inner_->score_batch(sequences, out);
  } catch (...) {
    span.fail();
    throw;
  }
  if (!all_finite(out)) span.fail();
}

void TracedEventPredictor::score_batch(
    std::span<const mon::ErrorSequence> sequences, std::span<double> out,
    pred::BatchScratch& scratch) const {
  Span span(ledger_, slot_, sequences.size());
  try {
    inner_->score_batch(sequences, out, scratch);
  } catch (...) {
    span.fail();
    throw;
  }
  if (!all_finite(out)) span.fail();
}

void TracedAction::execute(core::ManagedSystem& system, double confidence) {
  Span span(ledger_, Ledger::kAct);
  try {
    inner_->execute(system, confidence);
  } catch (...) {
    span.fail();
    throw;
  }
}

std::function<std::unique_ptr<act::Action>()> trace_action_factory(
    std::function<std::unique_ptr<act::Action>()> factory, Ledger* ledger) {
  return [factory = std::move(factory), ledger] {
    return std::make_unique<TracedAction>(factory(), ledger);
  };
}

membership::NodeFactory trace_node_factory(membership::NodeFactory factory,
                                           Ledger* ledger, RoundClock* clock) {
  return [factory = std::move(factory), ledger,
          clock](const membership::JoinContext& ctx)
             -> std::unique_ptr<core::ManagedSystem> {
    std::unique_ptr<core::ManagedSystem> joiner;
    {
      Span span(ledger, Ledger::kFactory);
      joiner = factory(ctx);
    }
    return std::make_unique<TracedSystem>(std::move(joiner), ledger, clock,
                                          ctx.at_time);
  };
}

}  // namespace pfm::perfbench
