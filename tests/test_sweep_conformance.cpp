// Conformance of the Eq. 1 kernel sweep (DESIGN.md §13) on synthetic
// models: the arena-backed score_batch_soa path (gather_features +
// sweep_scalar) must be bit-identical to the single-context score_one,
// and batch geometry must never change a bit. The suite keeps its
// historical SimdSweep name so the test IDs stay stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "prediction/kernels.hpp"
#include "property.hpp"

namespace pfm {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Synthetic but well-formed mixture model: everything the sweep consumes,
/// without paying for training. Width-derived constants are built with
/// the exact reference expressions, like rebuild_score_cache().
pred::MixtureModel synthetic_model(num::Rng& rng, std::size_t num_kernels,
                                   std::size_t dim) {
  pred::MixtureModel m;
  m.name = "UBF";
  m.mixture_kernels = true;
  m.num_raw_vars = dim;  // all level features: contexts need 1 sample only
  for (std::size_t i = 0; i < dim; ++i) {
    m.selected.push_back(i);
    const double lo = rng.uniform(-1.0, 0.0);
    m.lo.push_back(lo);
    m.range.push_back(rng.uniform(0.5, 2.0));
  }
  for (std::size_t i = 0; i < num_kernels; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.centers.push_back(rng.uniform(-0.2, 1.2));
    }
    const double w = std::max(rng.uniform(0.05, 1.5), 1e-6);
    m.w.push_back(w);
    m.two_w_sq.push_back(2.0 * w * w);
    m.step_scale.push_back(0.3 * w);
    m.mixture.push_back(rng.uniform(0.0, 1.0));
    m.weights.push_back(rng.uniform(-1.5, 1.5));
  }
  m.weights.push_back(rng.uniform(-0.5, 0.5));  // bias
  return m;
}

/// One-sample contexts over `dim` raw variables.
struct Corpus {
  std::vector<mon::SymptomSample> samples;
  std::vector<pred::SymptomContext> contexts;
};

Corpus synthetic_corpus(num::Rng& rng, std::size_t batch, std::size_t dim) {
  Corpus c;
  c.samples.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    mon::SymptomSample s;
    s.time = 600.0 + static_cast<double>(i);
    for (std::size_t j = 0; j < dim; ++j) {
      s.values.push_back(rng.uniform(-1.5, 2.5));
    }
    c.samples.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < batch; ++i) {
    pred::SymptomContext ctx;
    ctx.history = {&c.samples[i], 1};
    c.contexts.push_back(ctx);
  }
  return c;
}

TEST(SimdSweep, BatchCompositionNeverChangesTheBits) {
  // Scoring a corpus whole vs in two sub-batches must agree bit for bit —
  // the SoA gather re-packs columns per batch, and the sweep's contexts
  // are independent, so batch geometry is unobservable.
  proptest::run_cases(
      "sweep-composition", 202, 20, [](num::Rng& rng, std::size_t) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(1, 6));
        const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
        const auto batch = static_cast<std::size_t>(rng.uniform_int(2, 21));
        const auto cut = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(batch) - 1));
        const auto model = synthetic_model(rng, k, dim);
        const auto corpus = synthetic_corpus(rng, batch, dim);
        const auto view = model.view();
        std::span<const pred::SymptomContext> all = corpus.contexts;

        pred::BatchScratch scratch;
        std::vector<double> whole(batch), split(batch);
        pred::score_batch_soa(view, all, whole, scratch);
        pred::score_batch_soa(view, all.subspan(0, cut),
                              std::span<double>(split).subspan(0, cut),
                              scratch);
        pred::score_batch_soa(view, all.subspan(cut),
                              std::span<double>(split).subspan(cut), scratch);
        for (std::size_t i = 0; i < batch; ++i) {
          ASSERT_EQ(bits(whole[i]), bits(split[i]))
              << "batch=" << batch << " cut=" << cut << " i=" << i;
        }
      });
}

TEST(SimdSweep, ScalarSweepIsBitIdenticalToScoreOne) {
  proptest::run_cases(
      "scalar-vs-score-one", 203, 15, [](num::Rng& rng, std::size_t) {
        const auto model = synthetic_model(rng, 5, 4);
        const auto corpus = synthetic_corpus(rng, 9, 4);
        const auto view = model.view();
        pred::BatchScratch scratch;
        std::vector<double> out(corpus.contexts.size());
        pred::score_batch_soa(view, corpus.contexts, out, scratch);
        for (std::size_t i = 0; i < corpus.contexts.size(); ++i) {
          ASSERT_EQ(bits(out[i]),
                    bits(pred::score_one(view, corpus.contexts[i])))
              << "i=" << i;
        }
      });
}

}  // namespace
}  // namespace pfm
