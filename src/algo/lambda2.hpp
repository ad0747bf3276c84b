#pragma once

/// \file lambda2.hpp
/// λ2 vortex-region criterion (Jeong & Hussain; paper Sec. 6.3).
///
/// "...determines the symmetric part S and anti-symmetric part Q of the
/// velocity gradient tensor at each grid location. Thereafter, it computes
/// the three eigenvalues of S² + Q², sorts them in increasing order, and
/// finally uses the second largest eigenvalue λ2 to construct the scalar
/// field for isosurface extraction. Since vortex regions are assumed where
/// two eigenvalues are negative, λ2 about zero is considered as vortex
/// boundary."
///
/// Two implementations: the per-node scalar reference (lambda2_at, the
/// original Mat3-based math) and the SoA SIMD kernel
/// (simd::lambda2_field), selected by the `kernel` argument. Both use the
/// same stencils, the same adjugate inverse (a singular metric gives zero)
/// and the same trig eigen-solve; the AVX2 level evaluates the middle root
/// with one cosine in a -ffast-math TU. The property tests bound the drift
/// to 1e-4 of the field scale at both dispatch levels, and pin that a NaN
/// velocity gives the same NaN nodes on both paths.

#include <string>

#include "grid/structured_block.hpp"
#include "simd/simd.hpp"

namespace vira::algo {

inline constexpr const char* kLambda2Field = "lambda2";

/// λ2 at one node (gradient from curvilinear metric terms).
double lambda2_at(const grid::StructuredBlock& block, int i, int j, int k);

/// Computes the λ2 node field for the whole block and stores it as scalar
/// `out_field`. Returns the (min, max) of the field.
std::pair<float, float> compute_lambda2_field(grid::StructuredBlock& block,
                                              const std::string& out_field = kLambda2Field,
                                              simd::Kernel kernel = simd::default_kernel());

}  // namespace vira::algo
