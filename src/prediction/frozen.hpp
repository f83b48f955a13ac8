#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "prediction/kernels.hpp"
#include "prediction/predictor.hpp"

namespace pfm::pred {

/// Why loading a frozen-predictor artifact failed. Every malformed input
/// maps onto one of these — a corrupt file is a typed, recoverable error,
/// never undefined behavior (the corruption suite runs under ASan/UBSan).
enum class FrozenError : std::uint8_t {
  kOk = 0,
  kIo,                 ///< open/stat/mmap failed
  kTruncated,          ///< file shorter than header + declared payload
  kBadMagic,           ///< not a PFMFROZN artifact
  kBadVersion,         ///< artifact format newer/older than this build
  kLaneMismatch,       ///< lane_width field is not kLaneWidth
  kChecksumMismatch,   ///< payload bytes fail the FNV-1a check
  kMalformed,          ///< internally inconsistent counts/sizes
};

const char* to_string(FrozenError e) noexcept;

/// Value of the header's lane_width field. Version-1 artifacts record the
/// four-lane width of an earlier vectorized scorer; the format keeps the
/// field and load() requires this value, so every existing artifact loads.
inline constexpr std::uint32_t kLaneWidth = 4;

/// On-disk header of a frozen predictor (version 1). Fixed 104-byte
/// little-endian layout, followed immediately by `payload_bytes` of
/// packed f64/u64 arrays (see DESIGN.md §13 for the field table):
///   selected[dim] (u64), lo[dim], range[dim], centers[num_kernels*dim],
///   w[k], two_w_sq[k], step_scale[k], mixture[k], weights[k+1].
struct FrozenHeader {
  char magic[8];                ///< "PFMFROZN"
  std::uint32_t version;        ///< format version, currently 1
  std::uint32_t flags;          ///< bit 0: mixture_kernels
  std::uint32_t lane_width;     ///< always kLaneWidth
  std::uint32_t name_len;       ///< valid bytes in name[]
  char name[16];                ///< predictor name, unpadded ("UBF"/"RBF")
  std::uint64_t num_kernels;
  std::uint64_t dim;
  std::uint64_t num_raw_vars;
  double data_window;
  double lead_time;
  double prediction_window;
  std::uint64_t payload_bytes;  ///< bytes following the header
  std::uint64_t checksum;       ///< FNV-1a-64 over the payload bytes
};
static_assert(sizeof(FrozenHeader) == 104, "frozen header layout is pinned");

/// Serializes a trained mixture model into a frozen artifact at `path`
/// (atomic: written to a temp file, fsync'd, renamed into place).
/// Returns kOk or kIo/kMalformed.
FrozenError freeze(const MixtureModel& model, const std::string& path);

/// Serve-only predictor backed by an mmap'd frozen artifact. All f64
/// model arrays point directly into the mapping — loading allocates only
/// the (tiny) header materialization plus the portable index vector, and
/// scoring through the arena-backed overload allocates nothing at all.
///
/// Scores are bit-identical to the live UbfPredictor the artifact was
/// frozen from: both run the kernels.hpp engine over the same constants.
class FrozenPredictor final : public SymptomPredictor {
 public:
  struct LoadResult {
    std::unique_ptr<FrozenPredictor> predictor;  ///< null on error
    FrozenError error = FrozenError::kOk;
  };

  /// Maps and validates an artifact. Never throws on bad input — every
  /// corruption mode returns a typed error instead.
  static LoadResult load(const std::string& path);

  ~FrozenPredictor() override;
  FrozenPredictor(const FrozenPredictor&) = delete;
  FrozenPredictor& operator=(const FrozenPredictor&) = delete;

  std::string name() const override;

  /// Frozen predictors are serve-only; training throws std::logic_error.
  void train(const mon::MonitoringDataset& data) override;

  double score(const SymptomContext& context) const override;
  void score_batch(std::span<const SymptomContext> contexts,
                   std::span<double> out) const override;
  void score_batch(std::span<const SymptomContext> contexts,
                   std::span<double> out,
                   BatchScratch& scratch) const override;

  /// Window geometry baked into the artifact.
  WindowGeometry windows() const noexcept;

  /// The validated header, for tooling and tests.
  const FrozenHeader& header() const noexcept { return header_; }

 private:
  FrozenPredictor() = default;

  FrozenHeader header_{};
  void* map_ = nullptr;        ///< mmap base (whole file)
  std::size_t map_len_ = 0;
  /// Feature indices copied out of the map: the payload stores them as
  /// u64 but size_t may be narrower, so the portable copy keeps the view
  /// valid on every target. All double arrays point into the map.
  std::vector<std::size_t> selected_;
  MixtureModelView view_{};
};

}  // namespace pfm::pred
