#pragma once

namespace pfm::num::simd {

/// Backend name of the Eq. 1 scoring sweep. Every predictor scores with
/// the scalar libm sweep, so this is always "scalar"; it remains only
/// because benchmark manifests record it.
inline const char* backend_name() noexcept { return "scalar"; }

}  // namespace pfm::num::simd
