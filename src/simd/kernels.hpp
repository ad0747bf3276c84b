#pragma once

/// \file kernels.hpp
/// Vectorized extraction kernels over SoA block storage (DESIGN.md §13).
///
/// The kernels see a block only through GridView — plain pointers into the
/// 64-byte-aligned, padded component arrays of grid::FieldStore — so this
/// library stays a leaf (no grid/algo dependency) and the same kernel body
/// compiles into two translation units: a portable baseline and an
/// AVX2+FMA one (kernels.inl included by kernels_generic.cpp and
/// kernels_avx2.cpp). The public functions here route to whichever TU
/// simd::active_level() selects.
///
/// Numerical contract: each kernel mirrors the scalar reference formulas
/// (same finite-difference stencils, same adjugate inverse, same analytic
/// eigen-solve), so results agree to rounding-order differences only —
/// the property tests in simd_kernel_test.cpp bound the drift, at both
/// dispatch levels. The generic TU's λ2 uses the strict formulas
/// throughout; the avx2 TU's eigen pass runs in a -ffast-math TU, which
/// assumes finite values: that NaN inputs still come out NaN there is
/// pinned by a test, not promised by the compiler. The active-cell mask is
/// exact: byte for byte the scalar predicate.

#include <cstdint>
#include <utility>

namespace vira::simd {

/// Plain-pointer view of one structured block's SoA arrays. ni/nj/nk are
/// node counts; node (i,j,k) lives at index (k*nj + j)*ni + i.
struct GridView {
  const float* px = nullptr;
  const float* py = nullptr;
  const float* pz = nullptr;
  const float* vx = nullptr;
  const float* vy = nullptr;
  const float* vz = nullptr;
  int ni = 0;
  int nj = 0;
  int nk = 0;

  std::int64_t node_index(int i, int j, int k) const noexcept {
    return (static_cast<std::int64_t>(k) * nj + j) * ni + i;
  }
  std::int64_t node_count() const noexcept {
    return static_cast<std::int64_t>(ni) * nj * nk;
  }
};

/// λ2 vortex criterion for every node: out[node_index] = middle eigenvalue
/// of S²+Q² of the curvilinear velocity-gradient tensor. `out` must hold
/// node_count() floats. Returns the (min, max) of the written field.
/// Works one k-plane at a time: pass A fills the six entries of S²+Q² for
/// every node of the plane (vectorized over each row's interior nodes; a
/// singular metric gives zero, as in the scalar path), pass B solves them
/// as one eigen batch of ni·nj lanes.
std::pair<float, float> lambda2_field(const GridView& g, float* out);

/// Active-cell scan for one cell row: mask[c] = 1 iff cell c is active by
/// algo::cell_is_active's predicate — all 8 corner values finite, one
/// < iso and one >= iso — so a NaN or infinite corner makes a cell
/// inactive on both extraction paths. n00/n01/n10/n11 point at the first
/// node of the four corner node rows (j,k), (j+1,k), (j,k+1), (j+1,k+1);
/// each must be readable for ncells+1 floats. The compare loop steps 8
/// cells per AVX2 vector (4 per SSE2 vector).
void active_cell_mask(const float* n00, const float* n01, const float* n10, const float* n11,
                      int ncells, float iso, std::uint8_t* mask);

/// Batch middle eigenvalue of symmetric 3×3 matrices given their six
/// unique entries per lane (analytic trig method, same as
/// math::eigenvalues_sym3).
void eigen_mid_sym3_batch(const double* a00, const double* a11, const double* a22,
                          const double* a01, const double* a02, const double* a12, int n,
                          double* out);

/// Batch 8-point weighted gather: out[l] = Σ_{c<8} values[idx[l*8+c]] *
/// w[l*8+c] — the trilinear reconstruction primitive the batched pathline
/// integrator uses per velocity component.
void trilinear_gather(const float* values, const std::int64_t* idx, const double* w, int n,
                      double* out);

/// --- per-instruction-set implementations (dispatch targets) -------------
namespace generic {
std::pair<float, float> lambda2_field(const GridView& g, float* out);
void active_cell_mask(const float* n00, const float* n01, const float* n10, const float* n11,
                      int ncells, float iso, std::uint8_t* mask);
void eigen_mid_sym3_batch(const double* a00, const double* a11, const double* a22,
                          const double* a01, const double* a02, const double* a12, int n,
                          double* out);
void trilinear_gather(const float* values, const std::int64_t* idx, const double* w, int n,
                      double* out);
}  // namespace generic

#if defined(VIRA_SIMD_HAVE_AVX2)
namespace avx2 {
std::pair<float, float> lambda2_field(const GridView& g, float* out);
void active_cell_mask(const float* n00, const float* n01, const float* n10, const float* n11,
                      int ncells, float iso, std::uint8_t* mask);
void eigen_mid_sym3_batch(const double* a00, const double* a11, const double* a22,
                          const double* a01, const double* a02, const double* a12, int n,
                          double* out);
void trilinear_gather(const float* values, const std::int64_t* idx, const double* w, int n,
                      double* out);
}  // namespace avx2

/// Branch-free eigen-solve from the -ffast-math TU (kernels_eigen_fast.cpp)
/// whose acos/cos lower onto libmvec vector calls; backs the avx2 kernels'
/// pass B. Agrees with the strict formula to rounding error, not bit-exact.
namespace fastmath {
void eigen_mid_sym3_batch(const double* a00, const double* a11, const double* a22,
                          const double* a01, const double* a02, const double* a12, int n,
                          double* out);
}  // namespace fastmath
#endif

}  // namespace vira::simd
