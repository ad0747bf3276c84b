// AVX2+FMA kernel TU: same bodies as kernels_generic.cpp, compiled with
// -mavx2 -mfma (see simd/CMakeLists.txt). Only reached when
// simd::detect_level() confirms the CPU supports both, so no runtime
// illegal-instruction risk from the wider codegen. λ2's eigen pass routes
// through the -ffast-math libmvec TU (kernels_eigen_fast.cpp): strict FP
// keeps acos/cos scalar, one lane at a time. Which loops vectorize, and
// how to check: DESIGN.md §13.
#define VIRA_SIMD_NS avx2
#define VIRA_SIMD_FAST_EIGEN 1
#include "simd/kernels.inl"
