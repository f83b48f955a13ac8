// hotpath fixture: the kernel-sweep + frozen-serve shapes. The batch
// entry point is hot, its sweep helper is reached transitively, and the
// only legal throw is hoisted behind a pfm-cold [[noreturn]] helper.
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace pfm::pred {

// pfm-cold
[[noreturn]] void throw_serve_size_mismatch() {
  throw std::invalid_argument("score_batch: contexts/out size mismatch");
}

void mixture_sweep(const double* x, double* out, std::size_t n) {
  std::vector<double> lanes(4, 0.0);
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] + lanes[0];
}

// pfm-hot
void frozen_score_batch(const double* x, double* out, std::size_t n,
                        std::size_t out_n) {
  if (n != out_n) throw_serve_size_mismatch();
  std::string label("serve");
  mixture_sweep(x, out, n);
}

}  // namespace pfm::pred
