// Private interface between the kernel dispatch layer (kernels.cc) and the
// per-ISA microkernel bodies. Not part of the public kernel API.
//
// Every panel function computes rows [i0, i1) of its GEMM variant and must
// uphold the layer-wide determinism contract: each C element accumulates its
// k products in ascending p order with a fixed per-element operation
// sequence, so within an ISA results are bitwise deterministic and
// independent of the row range [i0, i1) and the batch size. Degenerate
// panels (n == 0 or k == 0) must be handled: k == 0 still applies the beta
// scale / bias epilogue to C, exactly.
#ifndef SRC_NN_KERNELS_INTERNAL_H_
#define SRC_NN_KERNELS_INTERNAL_H_

#include <cstdint>

#include "src/nn/kernels.h"

namespace cdmpp {
namespace kernels {
namespace detail {

// One NT output element: c_new = (beta == 0 ? 0 : beta*c_prev) + Σp a[p]*b[p],
// products accumulated in ascending p with separately rounded mul and add.
// Shared by the scalar NT body's column remainder and the AVX2 NT panel's
// column tail so the two ISAs keep one definition of the tail arithmetic
// (both translation units build with -ffp-contract=off, so the compiler
// cannot fuse these into FMA in either).
inline float GemmNTDotTail(const float* arow, const float* brow, int k, float beta,
                           float c_prev) {
  float s = 0.0f;
  for (int p = 0; p < k; ++p) {
    s += arow[p] * brow[p];
  }
  return (beta == 0.0f ? 0.0f : beta * c_prev) + s;
}

// Epilogue descriptor for the quantized panels: null means "store raw s32 to
// c32", non-null means "dequantize into cf" as
//   cf[i,j] = act(float(s32) * (a_scales[i] * b_scales[j]) + bias[j])
// with multiply and add rounded separately (both TUs build with
// -ffp-contract=off and the AVX2 body uses mul+add, not FMA), so the float
// results match bitwise across ISAs — integer accumulation is exact anyway.
struct Q8Epilogue {
  const float* a_scales;  // [m] per-row activation scales
  const float* b_scales;  // [n] per-output-channel weight scales
  const float* bias;      // [n] or null
  Activation act;
};

// Quantized panel bodies: rows [i0, i1) of the s32 product over the packed
// pair-interleaved B layout (see PackedQ8Weights in kernels.h). `k2` is the
// packed pair count; `b` points at [k2][n][2] i16 data. Exactly one of
// c32/cf is non-null, selected by `ep`.
void GemmQ8PanelScalar(int64_t i0, int64_t i1, int n, int k2, const int16_t* a, int lda,
                       const int16_t* b, const Q8Epilogue* ep, int32_t* c32, float* cf,
                       int ldc);

// Portable scalar bodies (kernels.cc), written so -O3 can auto-vectorize the
// contiguous j loops with the baseline ISA.
void GemmNNPanelScalar(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                       const float* b, int ldb, float beta, const float* bias,
                       Activation act, float* c, int ldc);
void GemmTNPanelScalar(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                       const float* b, int ldb, float beta, float* c, int ldc);
void GemmNTPanelScalar(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                       const float* b, int ldb, float beta, float* c, int ldc);

#ifdef CDMPP_HAVE_AVX2_KERNELS
// Hand-written AVX2 bodies (kernels_avx2.cc, compiled with -mavx2 -mfma).
// Only defined when CMake detects an x86 target compiler; callers must gate
// on ActiveKernelIsa() == KernelIsa::kAvx2, which is never true otherwise.
void GemmNNPanelAvx2(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                     const float* b, int ldb, float beta, const float* bias,
                     Activation act, float* c, int ldc);
void GemmTNPanelAvx2(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                     const float* b, int ldb, float beta, float* c, int ldc);
void GemmNTPanelAvx2(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                     const float* b, int ldb, float beta, float* c, int ldc);
void GemmQ8PanelAvx2(int64_t i0, int64_t i1, int n, int k2, const int16_t* a, int lda,
                     const int16_t* b, const Q8Epilogue* ep, int32_t* c32, float* cf,
                     int ldc);

// Vectorized body of the per-row activation quantizer (the scalar reference
// lives in src/nn/quantize.cc): rows [i0, i1) of x are scaled, clamped to
// +-qmax, and rounded into 16-bit codes with the row's dequant scale written
// to scales[i]. `inv_col` is null for the plain path, else the per-channel
// 1/c_p multiplied in during BOTH the absmax and rounding passes. BITWISE
// IDENTICAL to the scalar body, element for element: absmax is a max
// reduction (order-independent, so the 8-lane tree reduce changes nothing),
// the per-element multiplies are the same two separately-rounded IEEE
// products (no fused ops anywhere), the clamp is the same min/max, and
// _mm256_cvtps_epi32 rounds nearest-even exactly like the scalar
// std::lrintf under the default FP environment. quantize_test pins the
// equivalence so the int8 tier's cross-ISA bitwise contract survives this
// kernel being dispatched on AVX2 hosts only.
void QuantizeRowsPanelAvx2(int64_t i0, int64_t i1, int k, const float* x, int ldx,
                           const float* inv_col, float qmax, int16_t* q, int ldq,
                           float* scales);
#endif  // CDMPP_HAVE_AVX2_KERNELS

}  // namespace detail
}  // namespace kernels
}  // namespace cdmpp

#endif  // SRC_NN_KERNELS_INTERNAL_H_
