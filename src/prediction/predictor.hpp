#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "monitoring/dataset.hpp"
#include "monitoring/types.hpp"

namespace pfm::pred {

/// Everything a symptom-based predictor may look at when judging the
/// current system state: a trailing window of symptom samples (back() is
/// the present) and the failure history up to now. Predictors use what
/// they need — UBF reads the newest sample, trend analysis regresses over
/// the window, failure tracking only needs the failure history and the
/// current time.
struct SymptomContext {
  std::span<const mon::SymptomSample> history;
  std::span<const double> past_failures;

  /// Identity of this evaluation, stamped by the controller that built
  /// the context: `origin` is the global node index and `ordinal` that
  /// node's evaluation count. Predictors
  /// ignore both; fault-injection wrappers key their per-item decision
  /// streams on (origin, ordinal), so injected rolls stay bit-exact no
  /// matter how the fleet is sharded or batched.
  std::uint64_t origin = 0;
  std::uint64_t ordinal = 0;

  double now() const { return history.empty() ? 0.0 : history.back().time; }
};

/// Caller-owned scratch arena for batched scoring. The fleet runtime keeps
/// one per predictor and threads it through every round, so the hot path
/// allocates nothing once the buffers reached steady-state size — the
/// stress suite asserts capacity_bytes() stabilizes after warm-up.
///
/// `features` is used as a structure-of-arrays matrix (column f of a
/// batch of size n occupies [f * n, (f + 1) * n)): gathering each feature
/// contiguously across the batch lets a predictor sweep one kernel or one
/// projection over all contexts with unit stride. The remaining buffers
/// are generic per-context workspaces (regression inputs, activation
/// rows, event-id sets).
struct BatchScratch {
  std::vector<double> features;     ///< SoA feature columns
  std::vector<double> activations;  ///< one kernel/projection row
  std::vector<double> t_buf;        ///< regression abscissae
  std::vector<double> v_buf;        ///< regression ordinates
  std::vector<std::int32_t> ids;    ///< event-id workspace

  /// resize() that only ever grows capacity — the arena's footprint is
  /// monotone, which makes "no reallocation after warm-up" observable.
  template <typename T>
  static void resize(std::vector<T>& buf, std::size_t n) {
    if (n > buf.capacity()) buf.reserve(n);
    buf.resize(n);
  }

  /// Total reserved footprint; stable after warm-up on the hot path.
  std::size_t capacity_bytes() const noexcept {
    return (features.capacity() + activations.capacity() +
            t_buf.capacity() + v_buf.capacity()) * sizeof(double) +
           ids.capacity() * sizeof(std::int32_t);
  }
};

/// Online failure predictor over periodically monitored symptom variables
/// (the left branch of the Fig. 3 taxonomy).
///
/// Contract: train() may be called once on a training trace; score()
/// returns a real number that increases with failure-proneness. Scores are
/// thresholded by the caller (Sect. 3.3: the precision/recall trade-off is
/// controlled by a threshold), so absolute calibration is not required —
/// only ordering matters.
///
/// Fault model: callers do not trust scores blindly. The fleet controller
/// excludes non-finite scores from the warning reduce (counted as
/// sanitized), and trips a predictor that throws or emits non-finite
/// scores repeatedly out of the ensemble via a circuit breaker. A
/// predictor should still strive to return finite values — degraded mode
/// costs prediction coverage.
class SymptomPredictor {
 public:
  virtual ~SymptomPredictor() = default;

  virtual std::string name() const = 0;

  /// Learns from a recorded trace. Throws std::invalid_argument when the
  /// trace is unusable for this method (e.g., no failures at all).
  virtual void train(const mon::MonitoringDataset& data) = 0;

  /// Failure-proneness of the current state; higher = more failure-prone.
  /// Throws std::logic_error when called before train().
  virtual double score(const SymptomContext& context) const = 0;

  /// Scores many contexts in one call — the fleet runtime's hot path
  /// (one virtual call per predictor instead of one per node×layer).
  /// `out[i]` receives score(contexts[i]); the default loops over score()
  /// and is the reference every batched path reproduces bit for bit.
  /// Overrides hoist per-call setup.
  /// Must be safe to call concurrently on disjoint spans.
  /// Throws std::invalid_argument when the span sizes differ.
  virtual void score_batch(std::span<const SymptomContext> contexts,
                           std::span<double> out) const;

  /// Arena-backed batched scoring: identical results to score() (the
  /// conformance suite pins the bits), but all per-call buffers live in
  /// `scratch` and are reused across rounds. The default discards the
  /// arena and forwards to the two-argument overload; SoA-aware
  /// predictors override. Concurrent calls must use disjoint arenas.
  virtual void score_batch(std::span<const SymptomContext> contexts,
                           std::span<double> out, BatchScratch& scratch) const;
};

/// Online failure predictor over detected-error event sequences (the
/// "detected error reporting" branch of Fig. 3; input per Fig. 4).
class EventPredictor {
 public:
  virtual ~EventPredictor() = default;

  virtual std::string name() const = 0;

  /// Learns from labeled failure/non-failure sequences (Fig. 6).
  /// Throws std::invalid_argument when either class is empty.
  virtual void train(std::span<const mon::ErrorSequence> failure_sequences,
                     std::span<const mon::ErrorSequence> nonfailure_sequences) = 0;

  /// Failure-proneness of the error sequence observed in the current data
  /// window; higher = more failure-prone.
  virtual double score(const mon::ErrorSequence& sequence) const = 0;

  /// Batched counterpart of score(); same contract as
  /// SymptomPredictor::score_batch.
  virtual void score_batch(std::span<const mon::ErrorSequence> sequences,
                           std::span<double> out) const;

  /// Arena-backed batched scoring; same contract as the SymptomPredictor
  /// overload (bit-identical to score(), disjoint arenas for concurrent
  /// calls). The default forwards.
  virtual void score_batch(std::span<const mon::ErrorSequence> sequences,
                           std::span<double> out, BatchScratch& scratch) const;
};

/// Shared window geometry (Fig. 6): data window Delta t_d, lead time
/// Delta t_l, prediction period Delta t_p.
struct WindowGeometry {
  double data_window = 600.0;
  double lead_time = 300.0;
  double prediction_window = 300.0;

  void validate() const;
};

}  // namespace pfm::pred
