#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "prediction/predictor.hpp"

namespace pfm::pred {

/// Non-owning view of a trained Eq. 1 mixture-kernel scoring model: the
/// shared engine behind UbfPredictor's arena-backed score_batch and the
/// frozen-artifact FrozenPredictor. Both wrap the same gather + sweep
/// functions below, which is what makes frozen-vs-live bit-identity hold
/// by construction instead of by test luck.
///
/// All width-derived constants are precomputed with the exact expressions
/// the reference path evaluates inline (w clamped to >= 1e-6, 2*w*w,
/// 0.3*w, hi-lo), so substituting them never changes a bit.
struct MixtureModelView {
  const std::size_t* selected = nullptr;  ///< feature indices, `dim` entries
  std::size_t dim = 0;                    ///< selected feature count
  std::size_t num_raw_vars = 0;           ///< schema size (slope split point)
  const double* lo = nullptr;             ///< per-feature scaling low, `dim`
  const double* range = nullptr;          ///< per-feature hi - lo, `dim`
  const double* centers = nullptr;        ///< num_kernels x dim, row-major
  const double* w = nullptr;              ///< clamped width per kernel
  const double* two_w_sq = nullptr;       ///< 2*w*w per kernel
  const double* step_scale = nullptr;     ///< 0.3*w per kernel
  const double* mixture = nullptr;        ///< Eq. 1 m_i per kernel
  const double* weights = nullptr;        ///< num_kernels + 1, bias last
  std::size_t num_kernels = 0;
  bool mixture_kernels = true;            ///< false: plain RBF (no step term)
  double data_window = 600.0;             ///< slope-regression span (seconds)
};

/// Owning snapshot of the same model — what UbfPredictor::export_model()
/// hands to the freeze path, and what a loaded artifact materializes its
/// header metadata into.
struct MixtureModel {
  std::string name;                ///< predictor name ("UBF"/"RBF")
  bool mixture_kernels = true;
  WindowGeometry windows;
  std::size_t num_raw_vars = 0;
  std::vector<std::size_t> selected;
  std::vector<double> lo;
  std::vector<double> range;
  std::vector<double> centers;     ///< num_kernels x dim, row-major
  std::vector<double> w;
  std::vector<double> two_w_sq;
  std::vector<double> step_scale;
  std::vector<double> mixture;
  std::vector<double> weights;     ///< num_kernels + 1, bias last

  std::size_t num_kernels() const noexcept { return w.size(); }
  std::size_t dim() const noexcept { return selected.size(); }
  MixtureModelView view() const noexcept;
};

/// Gather phase of the SoA path: one contiguous column per selected
/// feature (feature i of context c lands at features[i * batch + c]),
/// levels read from the newest sample, slopes regressed over the data
/// window via scratch.t_buf/v_buf, then scaled and clamped exactly like
/// the reference path. Throws std::invalid_argument (out-of-line,
/// pfm-cold) on an empty context history, and on a sample that holds
/// fewer values than the feature it is read for.
void gather_features(const MixtureModelView& m,
                     std::span<const SymptomContext> contexts,
                     BatchScratch& scratch);

/// Reference kernel sweep over gathered columns: libm exp, bias-first
/// kernels-in-order accumulation — bit-identical to UbfPredictor::score()
/// and the 2-argument overload (the PR-5 conformance contract).
void sweep_scalar(const MixtureModelView& m, std::size_t batch,
                  BatchScratch& scratch, std::span<double> out) noexcept;

/// gather_features + sweep_scalar: the whole arena-backed scoring path of
/// both the live and the frozen predictor.
void score_batch_soa(const MixtureModelView& m,
                     std::span<const SymptomContext> contexts,
                     std::span<double> out, BatchScratch& scratch);

/// Single-context convenience (allocates a local arena; not a hot path):
/// bit-identical to UbfPredictor::score() on the same model.
double score_one(const MixtureModelView& m, const SymptomContext& ctx);

}  // namespace pfm::pred
