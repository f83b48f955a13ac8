#include "prediction/frozen.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

namespace pfm::pred {

// The on-disk format is little-endian; the loader points straight into
// the mapping, so a big-endian target would need a byte-swapping load
// path that nothing requires yet.
static_assert(std::endian::native == std::endian::little,
              "frozen artifacts assume a little-endian host");

namespace {

constexpr char kMagic[8] = {'P', 'F', 'M', 'F', 'R', 'O', 'Z', 'N'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kFlagMixtureKernels = 1u;
// Sanity bound on counts read from disk: generous for any real model,
// tight enough that every size product below stays far from overflow.
constexpr std::uint64_t kMaxCount = 1u << 20;

std::uint64_t fnv1a64(const unsigned char* data, std::size_t len) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Payload size implied by the header counts: selected (u64 x dim), the
/// per-feature and per-kernel f64 arrays, and weights (k + 1).
std::uint64_t expected_payload_bytes(std::uint64_t k, std::uint64_t dim) {
  const std::uint64_t doubles = 2 * dim + k * dim + 4 * k + (k + 1);
  return (dim + doubles) * sizeof(double);
}

void append_bytes(std::vector<unsigned char>& buf, const void* p,
                  std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  buf.insert(buf.end(), b, b + n);
}

bool write_all(int fd, const unsigned char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const char* to_string(FrozenError e) noexcept {
  switch (e) {
    case FrozenError::kOk: return "ok";
    case FrozenError::kIo: return "io error";
    case FrozenError::kTruncated: return "truncated artifact";
    case FrozenError::kBadMagic: return "bad magic";
    case FrozenError::kBadVersion: return "unsupported version";
    case FrozenError::kLaneMismatch: return "lane-width mismatch";
    case FrozenError::kChecksumMismatch: return "checksum mismatch";
    case FrozenError::kMalformed: return "malformed artifact";
  }
  return "unknown error";
}

FrozenError freeze(const MixtureModel& model, const std::string& path) {
  const std::uint64_t k = model.num_kernels();
  const std::uint64_t dim = model.dim();
  if (k == 0 || dim == 0 || k > kMaxCount || dim > kMaxCount ||
      model.lo.size() != dim || model.range.size() != dim ||
      model.centers.size() != k * dim || model.two_w_sq.size() != k ||
      model.step_scale.size() != k || model.mixture.size() != k ||
      model.weights.size() != k + 1 || model.name.empty()) {
    return FrozenError::kMalformed;
  }

  std::vector<unsigned char> payload;
  payload.reserve(expected_payload_bytes(k, dim));
  for (std::size_t idx : model.selected) {
    const std::uint64_t v = idx;
    append_bytes(payload, &v, sizeof(v));
  }
  append_bytes(payload, model.lo.data(), dim * sizeof(double));
  append_bytes(payload, model.range.data(), dim * sizeof(double));
  append_bytes(payload, model.centers.data(), k * dim * sizeof(double));
  append_bytes(payload, model.w.data(), k * sizeof(double));
  append_bytes(payload, model.two_w_sq.data(), k * sizeof(double));
  append_bytes(payload, model.step_scale.data(), k * sizeof(double));
  append_bytes(payload, model.mixture.data(), k * sizeof(double));
  append_bytes(payload, model.weights.data(), (k + 1) * sizeof(double));

  FrozenHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.flags = model.mixture_kernels ? kFlagMixtureKernels : 0u;
  h.lane_width = kLaneWidth;
  h.name_len = static_cast<std::uint32_t>(
      std::min<std::size_t>(model.name.size(), sizeof(h.name)));
  std::memcpy(h.name, model.name.data(), h.name_len);
  h.num_kernels = k;
  h.dim = dim;
  h.num_raw_vars = model.num_raw_vars;
  h.data_window = model.windows.data_window;
  h.lead_time = model.windows.lead_time;
  h.prediction_window = model.windows.prediction_window;
  h.payload_bytes = payload.size();
  h.checksum = fnv1a64(payload.data(), payload.size());

  // Atomic publish: write header + payload to a sibling temp file, fsync,
  // rename into place. A crashed freeze never leaves a torn artifact.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return FrozenError::kIo;
  bool ok = write_all(fd, reinterpret_cast<const unsigned char*>(&h),
                      sizeof(h)) &&
            write_all(fd, payload.data(), payload.size()) &&
            ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return FrozenError::kIo;
  }
  return FrozenError::kOk;
}

FrozenPredictor::LoadResult FrozenPredictor::load(const std::string& path) {
  LoadResult result;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    result.error = FrozenError::kIo;
    return result;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    result.error = FrozenError::kIo;
    return result;
  }
  const auto file_len = static_cast<std::size_t>(st.st_size);
  if (file_len < sizeof(FrozenHeader)) {
    ::close(fd);
    result.error = FrozenError::kTruncated;
    return result;
  }
  void* map = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    result.error = FrozenError::kIo;
    return result;
  }

  // From here on, every early exit must unmap.
  auto fail = [&](FrozenError e) {
    ::munmap(map, file_len);
    result.error = e;
    return std::move(result);
  };

  FrozenHeader h{};
  std::memcpy(&h, map, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return fail(FrozenError::kBadMagic);
  }
  if (h.version != kVersion) return fail(FrozenError::kBadVersion);
  if (h.lane_width != kLaneWidth) {
    return fail(FrozenError::kLaneMismatch);
  }
  if (h.name_len == 0 || h.name_len > sizeof(h.name) || h.num_kernels == 0 ||
      h.dim == 0 || h.num_kernels > kMaxCount || h.dim > kMaxCount ||
      h.num_raw_vars > kMaxCount) {
    return fail(FrozenError::kMalformed);
  }
  if (h.payload_bytes != expected_payload_bytes(h.num_kernels, h.dim)) {
    return fail(FrozenError::kMalformed);
  }
  if (file_len < sizeof(FrozenHeader) + h.payload_bytes) {
    return fail(FrozenError::kTruncated);
  }
  const auto* payload =
      static_cast<const unsigned char*>(map) + sizeof(FrozenHeader);
  if (fnv1a64(payload, static_cast<std::size_t>(h.payload_bytes)) !=
      h.checksum) {
    return fail(FrozenError::kChecksumMismatch);
  }

  const auto k = static_cast<std::size_t>(h.num_kernels);
  const auto dim = static_cast<std::size_t>(h.dim);

  // selected: u64 on disk, size_t in the view — copy for portability and
  // reject indices a feature gather could never satisfy. Validated before
  // the predictor takes ownership of the mapping, so fail() stays the
  // only unmapper on every error path.
  std::vector<std::size_t> selected(dim);
  const unsigned char* cursor = payload;
  for (std::size_t i = 0; i < dim; ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, cursor + i * sizeof(v), sizeof(v));
    if (v >= 2 * kMaxCount) return fail(FrozenError::kMalformed);
    selected[i] = static_cast<std::size_t>(v);
  }
  cursor += dim * sizeof(std::uint64_t);

  auto p = std::unique_ptr<FrozenPredictor>(new FrozenPredictor());
  p->header_ = h;
  p->map_ = map;
  p->map_len_ = file_len;
  p->selected_ = std::move(selected);

  // The double arrays are served straight from the mapping (the payload
  // starts 104 bytes in — 8-byte aligned off the page-aligned base).
  auto take = [&](std::size_t n) {
    const auto* d = reinterpret_cast<const double*>(cursor);
    cursor += n * sizeof(double);
    return d;
  };
  MixtureModelView v;
  v.selected = p->selected_.data();
  v.dim = dim;
  v.num_raw_vars = static_cast<std::size_t>(h.num_raw_vars);
  v.lo = take(dim);
  v.range = take(dim);
  v.centers = take(k * dim);
  v.w = take(k);
  v.two_w_sq = take(k);
  v.step_scale = take(k);
  v.mixture = take(k);
  v.weights = take(k + 1);
  v.num_kernels = k;
  v.mixture_kernels = (h.flags & kFlagMixtureKernels) != 0;
  v.data_window = h.data_window;
  p->view_ = v;

  result.predictor = std::move(p);
  return result;
}

FrozenPredictor::~FrozenPredictor() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

std::string FrozenPredictor::name() const {
  return std::string(header_.name, header_.name_len);
}

void FrozenPredictor::train(const mon::MonitoringDataset&) {
  throw std::logic_error("FrozenPredictor: serve-only (train at freeze time)");
}

WindowGeometry FrozenPredictor::windows() const noexcept {
  WindowGeometry g;
  g.data_window = header_.data_window;
  g.lead_time = header_.lead_time;
  g.prediction_window = header_.prediction_window;
  return g;
}

double FrozenPredictor::score(const SymptomContext& context) const {
  return score_one(view_, context);
}

namespace {

// pfm-cold
[[noreturn]] void throw_frozen_batch_size_mismatch() {
  throw std::invalid_argument("score_batch: contexts/out size mismatch");
}

}  // namespace

void FrozenPredictor::score_batch(std::span<const SymptomContext> contexts,
                                  std::span<double> out) const {
  if (contexts.size() != out.size()) throw_frozen_batch_size_mismatch();
  BatchScratch scratch;
  score_batch_soa(view_, contexts, out, scratch);
}

// pfm-hot
void FrozenPredictor::score_batch(std::span<const SymptomContext> contexts,
                                  std::span<double> out,
                                  BatchScratch& scratch) const {
  if (contexts.size() != out.size()) throw_frozen_batch_size_mismatch();
  score_batch_soa(view_, contexts, out, scratch);
}

}  // namespace pfm::pred
