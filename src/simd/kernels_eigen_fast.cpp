/// \file kernels_eigen_fast.cpp
/// Vectorized trig eigen-solve for the avx2 kernels' pass B.
///
/// This TU (and only this TU) is compiled with -ffast-math so GCC lowers
/// std::acos / std::cos onto libmvec's AVX2 vector variants (_ZGVdN4v_*).
/// The loop body is branch-free — the scalar reference's off == 0 diagonal
/// shortcut and singular-p guard become arithmetic selects — so the whole
/// eigen-solve if-converts and runs four lanes per iteration, with one
/// acos and one cos per lane. Results agree with the strict-FP scalar
/// formula to rounding error (the λ2 property test pins the tolerance);
/// bit-exactness is NOT promised here, which is why the generic (fallback)
/// namespace keeps the strict scalar loop.
///
/// Kept out of kernels.inl: -ffast-math must not leak into pass A (whose
/// subtraction stencils are formula-identical to the scalar path) or into
/// any TU linked into main() (GCC would add crtfastmath's global FTZ).

#include <algorithm>
#include <cmath>

#include "simd/kernels.hpp"

#if defined(VIRA_SIMD_HAVE_AVX2)

namespace vira::simd::fastmath {

void eigen_mid_sym3_batch(const double* a00, const double* a11, const double* a22,
                          const double* a01, const double* a02, const double* a12, int n,
                          double* out) {
  constexpr double kPi = 3.14159265358979323846;
  for (int l = 0; l < n; ++l) {
    const double off = a01[l] * a01[l] + a02[l] * a02[l] + a12[l] * a12[l];
    const double q = (a00[l] + a11[l] + a22[l]) / 3.0;
    const double b00 = a00[l] - q;
    const double b11 = a11[l] - q;
    const double b22 = a22[l] - q;
    const double p2 = b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * off;
    const double p = std::sqrt(p2 / 6.0);
    // p == 0 means A = q·I (all eigenvalues q). The tiny floor keeps the
    // division finite; b·inv_p is then 0/tiny = 0, half_det = 0, and the
    // trig path lands on q exactly — no branch needed.
    const double inv_p = 1.0 / std::max(p, 1e-150);
    const double c00 = b00 * inv_p;
    const double c11 = b11 * inv_p;
    const double c22 = b22 * inv_p;
    const double c01 = a01[l] * inv_p;
    const double c02 = a02[l] * inv_p;
    const double c12 = a12[l] * inv_p;
    const double half_det =
        0.5 * (c00 * (c11 * c22 - c12 * c12) - c01 * (c01 * c22 - c12 * c02) +
               c02 * (c01 * c12 - c11 * c02));
    const double r = std::clamp(half_det, -1.0, 1.0);
    const double phi = std::acos(r) / 3.0;
    // The middle root directly: cos φ + cos(φ + 2π/3) + cos(φ + 4π/3) = 0,
    // so this equals the strict formula's 3q − e0 − e2 with one cosine
    // instead of two.
    out[l] = q + 2.0 * p * std::cos(phi + 4.0 * kPi / 3.0);
  }
}

}  // namespace vira::simd::fastmath

#endif  // VIRA_SIMD_HAVE_AVX2
