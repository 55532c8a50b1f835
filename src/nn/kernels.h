// The single GEMM kernel layer every matrix product in the library lowers to.
//
// All kernels operate on row-major float buffers with explicit leading
// dimensions (lda/ldb/ldc = elements between consecutive rows), so they work
// on whole matrices and on sub-panels alike. Three transpose variants cover
// everything the NN stack needs:
//
//   GemmNN:  C = beta*C + A  · B     A: [m,k] lda, B: [k,n] ldb, C: [m,n] ldc
//   GemmTN:  C = beta*C + Aᵀ · B     A: [k,m] lda, B: [k,n] ldb, C: [m,n] ldc
//   GemmNT:  C = beta*C + A  · Bᵀ    A: [m,k] lda, B: [n,k] ldb, C: [m,n] ldc
//
// The `beta` accumulate parameter fuses "grad += MatMul(...)" patterns
// (beta = 1) and plain products (beta = 0, C is not read) without
// temporaries. GemmBiasAct additionally fuses the Linear-layer epilogue
// act(A·B + bias) into the kernel's register tile.
//
// Implementation contract (relied on by src/serve/ and tests):
//   * The optimized entry points dispatch at runtime between a portable
//     scalar body and hand-written AVX2 (+FMA) microkernels — see
//     src/support/cpu_features.h and the CDMPP_KERNEL_ISA override. Both are
//     register-tiled over 4-row A panels and vectorized/blocked across
//     output columns. They run on the calling thread and never fork: the
//     predictor's shapes are too small for a fork per GEMM to pay, so
//     training splits whole batches across threads instead
//     (src/core/predictor.cc).
//   * Every C element is accumulated over p = 0..k-1 in ascending order,
//     independent of the register tile a row lands in and of the batch
//     size. GemmNN and GemmTN start that chain from beta*C; GemmNT sums the
//     dot from zero and then adds beta*C once, fl(fl(beta*C) + dot). Either
//     way, within a given ISA results are bitwise run-to-run deterministic
//     and batch-size-invariant (PredictBatched == PredictAst). Across ISAs
//     results agree to ~1e-6 relative, not bitwise: the AVX2 path rounds
//     each multiply-add once (FMA) where the scalar path rounds twice.
//     Degenerate shapes (any of m/n/k zero) are exact under every ISA:
//     beta = 0 zero-fills, k = 0 with beta != 0 is a pure scale of C, and
//     empty C is untouched.
//   * For GemmNN and GemmTN with beta = 1 the chain starts from C itself,
//     so a product over k = k1 + k2 rows equals one over the first k1 rows
//     followed by one over the last k2, bit for bit (the training shards
//     rely on this for GemmTN's weight gradients).
//   * The *Ref kernels are the naive triple loops; they are the golden
//     reference the dispatched kernels are tested against and the baseline
//     bench_gemm reports speedups over.
//
// Besides fp32, the layer ships an int8 symmetric-quantized tier
// (GemmS8S8S32 / GemmS8S8BiasAct below): weights are quantized once per
// output channel into the packed PackedQ8Weights format, activations are
// quantized dynamically with one scale per row (src/nn/quantize.h), and the
// integer accumulation is exact — so unlike fp32, the quantized kernels are
// bitwise identical across ISAs, not just within one.
#ifndef SRC_NN_KERNELS_H_
#define SRC_NN_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdmpp {
namespace kernels {

enum class Activation { kNone, kRelu };

inline float ApplyActivation(float v, Activation act) {
  return act == Activation::kRelu ? (v > 0.0f ? v : 0.0f) : v;
}

// ---- Naive reference kernels (golden baseline). ----------------------------
void GemmNNRef(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
               float beta, float* c, int ldc);
void GemmTNRef(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
               float beta, float* c, int ldc);
void GemmNTRef(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
               float beta, float* c, int ldc);

// ---- Optimized blocked kernels. ---------------------------------------------
void GemmNN(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float beta,
            float* c, int ldc);
void GemmTN(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float beta,
            float* c, int ldc);
void GemmNT(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float beta,
            float* c, int ldc);

// C = act(A·B + bias). `bias` is a length-n row broadcast over every output
// row (may be null for "no bias"). This is the Linear-layer forward fused
// into one pass over C; beta is implicitly 0.
void GemmBiasAct(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
                 const float* bias, Activation act, float* c, int ldc);

// ---- Int8-weight symmetric-quantized kernels. -------------------------------
//
// Symmetric (zero-point 0) integer codes carried in 16-bit lanes: weight
// codes are int8 ([-127, 127], one scale per output channel); activation
// codes use the headroom the 16-bit lane gives for free, bounded per layer
// by ActivationQMax(k) (src/nn/quantize.h) so that the whole reduction
// provably fits the i32 accumulator: k * qmax_a * 127 <= 2^31 - 1. The AVX2
// body is built on _mm256_madd_epi16, which multiplies i16 lanes into i32
// exactly (no saturation anywhere) — pre-VNNI x86 has no non-saturating
// 8-bit dot product, and the _mm256_maddubs_epi16 sign-trick formulation
// measured *slower* than the fp32 FMA kernels on the predictor's small-k
// shapes, while the madd path measures ~2x over them at identical memory
// traffic for the 16-bit-staged activations. Exact integer accumulation
// makes the quantized kernels bitwise identical across ISAs, batch sizes,
// and thread partitions.
//
// Weights are packed once at quantization time (src/nn/quantize.h) into the
// layout the madd kernel consumes directly:
//   data[(p2 * n + j) * 2 + s] = q_weight(2 * p2 + s, j)
// i.e. reduction index pairs (2p2, 2p2+1) of output channel j sit in
// adjacent i16 lanes (one i32 unit per channel), with odd k zero-padded.
struct PackedQ8Weights {
  int k = 0;                  // logical reduction length (fp32 weight rows)
  int n = 0;                  // output channels (fp32 weight cols)
  int k2 = 0;                 // ceil(k / 2) packed pair-rows
  std::vector<int16_t> data;  // [k2][n][2] pair-interleaved quantized values
  std::vector<float> scales;  // [n] per-output-channel dequantization scales

  // Unpacked view for tests/references: quantized weight at (p, j), p < 2*k2.
  int16_t At(int p, int j) const {
    return data[(static_cast<size_t>(p / 2) * n + j) * 2 + (p & 1)];
  }
};

// C_s32 = A_q · B_q with raw int32 accumulators. A holds quantized rows in
// 16-bit lanes, lda >= 2 * w.k2 elements between rows with columns
// [k, 2 * w.k2) zeroed (QuantizeActivationsPerRow guarantees both).
void GemmS8S8S32Ref(int m, const int16_t* a, int lda, const PackedQ8Weights& w, int32_t* c,
                    int ldc);
void GemmS8S8S32(int m, const int16_t* a, int lda, const PackedQ8Weights& w, int32_t* c,
                 int ldc);

// Fused dequantize+bias+activation epilogue — the quantized Linear forward:
//   C[i,j] = act(float(s32[i,j]) * (a_scales[i] * w.scales[j]) + bias[j])
// with the multiply and add rounded separately (no FMA) in every ISA, so the
// float output is also bitwise identical across ISAs. `bias` may be null.
void GemmS8S8BiasActRef(int m, const int16_t* a, int lda, const PackedQ8Weights& w,
                        const float* a_scales, const float* bias, Activation act, float* c,
                        int ldc);
void GemmS8S8BiasAct(int m, const int16_t* a, int lda, const PackedQ8Weights& w,
                     const float* a_scales, const float* bias, Activation act, float* c,
                     int ldc);

}  // namespace kernels
}  // namespace cdmpp

#endif  // SRC_NN_KERNELS_H_
