// Dispatch layer for the GEMM kernels plus the portable scalar bodies.
//
// The public GemmNN/GemmTN/GemmNT/GemmBiasAct entry points pick a per-ISA
// panel body (scalar here, AVX2 in kernels_avx2.cc) via ActiveKernelIsa()
// and run it over every row on the calling thread: the kernels never fork
// (parallelism lives above them, in the training shards). Both bodies
// accumulate each element over p ascending, so results are bitwise
// deterministic and batch-size-invariant within an ISA; across ISAs they
// agree to ~1e-6 relative, not bitwise — the AVX2 body fuses each
// multiply-add while this translation unit is pinned to separate mul+add
// roundings via -ffp-contract=off (see src/support/cpu_features.h).
#include "src/nn/kernels.h"

#include <algorithm>
#include <cstdint>

#include "src/nn/kernels_internal.h"
#include "src/obs/metrics.h"
#include "src/support/cpu_features.h"

namespace cdmpp {
namespace kernels {
namespace {

// Register tile: rows of A processed together so each loaded B row is reused
// kMr times from registers/L1 instead of re-streamed per output row.
constexpr int kMr = 4;
// C/B column block: the accumulator tile (kMr x kNc floats) and the active
// B panel stay resident in L1 while p runs over the full reduction.
constexpr int kNc = 128;

// Writes one finished accumulator row back to C, applying the optional fused
// bias + activation epilogue.
inline void StoreRow(float* crow, const float* acc, int nc, const float* bias,
                     Activation act) {
  if (bias != nullptr) {
    for (int j = 0; j < nc; ++j) {
      crow[j] = ApplyActivation(acc[j] + bias[j], act);
    }
  } else if (act != Activation::kNone) {
    for (int j = 0; j < nc; ++j) {
      crow[j] = ApplyActivation(acc[j], act);
    }
  } else {
    for (int j = 0; j < nc; ++j) {
      crow[j] = acc[j];
    }
  }
}

inline void InitAccRow(float* acc, const float* crow, int nc, float beta) {
  if (beta == 0.0f) {
    for (int j = 0; j < nc; ++j) {
      acc[j] = 0.0f;
    }
  } else {
    for (int j = 0; j < nc; ++j) {
      acc[j] = beta * crow[j];
    }
  }
}

// Data-plane event counters: every dispatched GEMM bumps a calls counter and
// a flops counter named by precision and the ISA it dispatched to, so a
// metrics snapshot attributes compute volume to the code path that ran it.
// Registry references resolve once (function-local statics, initialized on
// the warm-up pass); each call is then two sharded relaxed adds — invisible
// next to the smallest kernel invocation.
void CountGemm(bool int8, int m, int n, int k) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const calls[2][2] = {
      {&registry.GetCounter("gemm.calls.fp32.scalar"),
       &registry.GetCounter("gemm.calls.fp32.avx2")},
      {&registry.GetCounter("gemm.calls.int8.scalar"),
       &registry.GetCounter("gemm.calls.int8.avx2")},
  };
  static obs::Counter* const flops[2][2] = {
      {&registry.GetCounter("gemm.flops.fp32.scalar"),
       &registry.GetCounter("gemm.flops.fp32.avx2")},
      {&registry.GetCounter("gemm.flops.int8.scalar"),
       &registry.GetCounter("gemm.flops.int8.avx2")},
  };
  const int avx2 = ActiveKernelIsa() == KernelIsa::kAvx2 ? 1 : 0;
  calls[int8 ? 1 : 0][avx2]->Add(1);
  flops[int8 ? 1 : 0][avx2]->Add(2ull * static_cast<uint64_t>(m) * static_cast<uint64_t>(n) *
                                 static_cast<uint64_t>(std::max(k, 1)));
}

#ifdef CDMPP_HAVE_AVX2_KERNELS
bool UseAvx2() { return ActiveKernelIsa() == KernelIsa::kAvx2; }
#endif

void GemmNNImpl(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
                float beta, const float* bias, Activation act, float* c, int ldc) {
  if (m <= 0 || n <= 0) {
    return;
  }
  CountGemm(/*int8=*/false, m, n, k);
#ifdef CDMPP_HAVE_AVX2_KERNELS
  if (UseAvx2()) {
    detail::GemmNNPanelAvx2(0, m, n, k, a, lda, b, ldb, beta, bias, act, c, ldc);
    return;
  }
#endif
  detail::GemmNNPanelScalar(0, m, n, k, a, lda, b, ldb, beta, bias, act, c, ldc);
}

}  // namespace

namespace detail {

// Rows [i0, i1) of C = beta*C + A·B (+ fused bias/act). Both the kMr-row tile
// and the remainder-row path accumulate each C element over p ascending, so
// per-element results are independent of panel/tile boundaries.
void GemmNNPanelScalar(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                       const float* b, int ldb, float beta, const float* bias,
                       Activation act, float* c, int ldc) {
  float acc[kMr][kNc];
  for (int jc = 0; jc < n; jc += kNc) {
    const int nc = std::min(kNc, n - jc);
    const float* bias_panel = bias != nullptr ? bias + jc : nullptr;
    int64_t i = i0;
    for (; i + kMr <= i1; i += kMr) {
      for (int r = 0; r < kMr; ++r) {
        InitAccRow(acc[r], c + (i + r) * ldc + jc, nc, beta);
      }
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<int64_t>(p) * ldb + jc;
        const float a0 = a[(i + 0) * lda + p];
        const float a1 = a[(i + 1) * lda + p];
        const float a2 = a[(i + 2) * lda + p];
        const float a3 = a[(i + 3) * lda + p];
        for (int j = 0; j < nc; ++j) {
          const float bv = brow[j];
          acc[0][j] += a0 * bv;
          acc[1][j] += a1 * bv;
          acc[2][j] += a2 * bv;
          acc[3][j] += a3 * bv;
        }
      }
      for (int r = 0; r < kMr; ++r) {
        StoreRow(c + (i + r) * ldc + jc, acc[r], nc, bias_panel, act);
      }
    }
    for (; i < i1; ++i) {
      InitAccRow(acc[0], c + i * ldc + jc, nc, beta);
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<int64_t>(p) * ldb + jc;
        const float a0 = a[i * lda + p];
        for (int j = 0; j < nc; ++j) {
          acc[0][j] += a0 * brow[j];
        }
      }
      StoreRow(c + i * ldc + jc, acc[0], nc, bias_panel, act);
    }
  }
}

// Rows [i0, i1) of C = beta*C + Aᵀ·B where A is stored [k, m]: column i of
// the logical Aᵀ row-panel is the contiguous run a[p*lda + i .. i+kMr), so
// the tile loads stay unit-stride even though the operand is transposed.
void GemmTNPanelScalar(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                       const float* b, int ldb, float beta, float* c, int ldc) {
  float acc[kMr][kNc];
  for (int jc = 0; jc < n; jc += kNc) {
    const int nc = std::min(kNc, n - jc);
    int64_t i = i0;
    for (; i + kMr <= i1; i += kMr) {
      for (int r = 0; r < kMr; ++r) {
        InitAccRow(acc[r], c + (i + r) * ldc + jc, nc, beta);
      }
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<int64_t>(p) * ldb + jc;
        const float* acol = a + static_cast<int64_t>(p) * lda + i;
        const float a0 = acol[0];
        const float a1 = acol[1];
        const float a2 = acol[2];
        const float a3 = acol[3];
        for (int j = 0; j < nc; ++j) {
          const float bv = brow[j];
          acc[0][j] += a0 * bv;
          acc[1][j] += a1 * bv;
          acc[2][j] += a2 * bv;
          acc[3][j] += a3 * bv;
        }
      }
      for (int r = 0; r < kMr; ++r) {
        StoreRow(c + (i + r) * ldc + jc, acc[r], nc, nullptr, Activation::kNone);
      }
    }
    for (; i < i1; ++i) {
      InitAccRow(acc[0], c + i * ldc + jc, nc, beta);
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<int64_t>(p) * ldb + jc;
        const float a0 = a[static_cast<int64_t>(p) * lda + i];
        for (int j = 0; j < nc; ++j) {
          acc[0][j] += a0 * brow[j];
        }
      }
      StoreRow(c + i * ldc + jc, acc[0], nc, nullptr, Activation::kNone);
    }
  }
}

// Rows [i0, i1) of C = beta*C + A·Bᵀ. Both operands stream along p with unit
// stride; j is tiled by 4 so one pass over A's row feeds four independent
// dot-product chains (ILP) while B rows j..j+3 stay hot in L1. Each dot uses
// a single accumulator over p ascending in both the tile and remainder
// paths — same determinism contract as the other kernels. Note the NT
// formula rounds as fl(fl(beta*c) + sum), with the sum accumulated from 0;
// the AVX2 body mirrors this exactly.
void GemmNTPanelScalar(int64_t i0, int64_t i1, int n, int k, const float* a, int lda,
                       const float* b, int ldb, float beta, float* c, int ldc) {
  constexpr int kNr = 4;
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    int j = 0;
    for (; j + kNr <= n; j += kNr) {
      const float* b0 = b + static_cast<int64_t>(j + 0) * ldb;
      const float* b1 = b + static_cast<int64_t>(j + 1) * ldb;
      const float* b2 = b + static_cast<int64_t>(j + 2) * ldb;
      const float* b3 = b + static_cast<int64_t>(j + 3) * ldb;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      crow[j + 0] = (beta == 0.0f ? 0.0f : beta * crow[j + 0]) + s0;
      crow[j + 1] = (beta == 0.0f ? 0.0f : beta * crow[j + 1]) + s1;
      crow[j + 2] = (beta == 0.0f ? 0.0f : beta * crow[j + 2]) + s2;
      crow[j + 3] = (beta == 0.0f ? 0.0f : beta * crow[j + 3]) + s3;
    }
    for (; j < n; ++j) {
      const float* brow = b + static_cast<int64_t>(j) * ldb;
      crow[j] = GemmNTDotTail(arow, brow, k, beta, crow[j]);
    }
  }
}

// Rows [i0, i1) of the quantized product. The inner loop walks one packed
// pair-row of B (2 * nc adjacent i16s) per reduction pair, accumulating
// a0*b_lo + a1*b_hi into i32 — the same a-pair-times-channel-pair structure
// the AVX2 vpmaddwd body uses, so -O3 can auto-vectorize it with pmaddwd.
// Integer accumulation is exact; the dequant epilogue's mul and add round
// separately (this TU builds with -ffp-contract=off), matching the AVX2
// epilogue bitwise.
void GemmQ8PanelScalar(int64_t i0, int64_t i1, int n, int k2, const int16_t* a, int lda,
                       const int16_t* b, const Q8Epilogue* ep, int32_t* c32, float* cf,
                       int ldc) {
  int32_t acc[kNc];
  for (int jc = 0; jc < n; jc += kNc) {
    const int nc = std::min(kNc, n - jc);
    for (int64_t i = i0; i < i1; ++i) {
      const int16_t* arow = a + i * lda;
      for (int j = 0; j < nc; ++j) {
        acc[j] = 0;
      }
      for (int p2 = 0; p2 < k2; ++p2) {
        const int32_t a0 = arow[2 * p2];
        const int32_t a1 = arow[2 * p2 + 1];
        const int16_t* brow = b + (static_cast<int64_t>(p2) * n + jc) * 2;
        for (int j = 0; j < nc; ++j) {
          acc[j] += a0 * brow[2 * j] + a1 * brow[2 * j + 1];
        }
      }
      if (ep == nullptr) {
        int32_t* crow = c32 + i * ldc + jc;
        for (int j = 0; j < nc; ++j) {
          crow[j] = acc[j];
        }
      } else {
        const float a_scale = ep->a_scales[i];
        float* crow = cf + i * ldc + jc;
        for (int j = 0; j < nc; ++j) {
          const float cs = a_scale * ep->b_scales[jc + j];
          float v = static_cast<float>(acc[j]) * cs;
          if (ep->bias != nullptr) {
            v += ep->bias[jc + j];
          }
          crow[j] = ApplyActivation(v, ep->act);
        }
      }
    }
  }
}

}  // namespace detail

namespace {

// Shared dispatch for the two quantized entry points (raw s32 vs fused
// epilogue).
void GemmQ8Impl(int m, const int16_t* a, int lda, const PackedQ8Weights& w,
                const detail::Q8Epilogue* ep, int32_t* c32, float* cf, int ldc) {
  if (m <= 0 || w.n <= 0) {
    return;
  }
  CountGemm(/*int8=*/true, m, w.n, 2 * w.k2);
#ifdef CDMPP_HAVE_AVX2_KERNELS
  if (UseAvx2()) {
    detail::GemmQ8PanelAvx2(0, m, w.n, w.k2, a, lda, w.data.data(), ep, c32, cf, ldc);
    return;
  }
#endif
  detail::GemmQ8PanelScalar(0, m, w.n, w.k2, a, lda, w.data.data(), ep, c32, cf, ldc);
}

}  // namespace

void GemmS8S8S32Ref(int m, const int16_t* a, int lda, const PackedQ8Weights& w, int32_t* c,
                    int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < w.n; ++j) {
      int32_t s = 0;
      for (int p = 0; p < 2 * w.k2; ++p) {
        s += static_cast<int32_t>(a[static_cast<int64_t>(i) * lda + p]) * w.At(p, j);
      }
      c[static_cast<int64_t>(i) * ldc + j] = s;
    }
  }
}

void GemmS8S8S32(int m, const int16_t* a, int lda, const PackedQ8Weights& w, int32_t* c,
                 int ldc) {
  GemmQ8Impl(m, a, lda, w, /*ep=*/nullptr, c, nullptr, ldc);
}

void GemmS8S8BiasActRef(int m, const int16_t* a, int lda, const PackedQ8Weights& w,
                        const float* a_scales, const float* bias, Activation act, float* c,
                        int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < w.n; ++j) {
      int32_t s = 0;
      for (int p = 0; p < 2 * w.k2; ++p) {
        s += static_cast<int32_t>(a[static_cast<int64_t>(i) * lda + p]) * w.At(p, j);
      }
      const float cs = a_scales[i] * w.scales[j];
      float v = static_cast<float>(s) * cs;
      if (bias != nullptr) {
        v += bias[j];
      }
      c[static_cast<int64_t>(i) * ldc + j] = ApplyActivation(v, act);
    }
  }
}

void GemmS8S8BiasAct(int m, const int16_t* a, int lda, const PackedQ8Weights& w,
                     const float* a_scales, const float* bias, Activation act, float* c,
                     int ldc) {
  detail::Q8Epilogue ep{a_scales, w.scales.data(), bias, act};
  GemmQ8Impl(m, a, lda, w, &ep, nullptr, c, ldc);
}

void GemmNNRef(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
               float beta, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float s = beta == 0.0f ? 0.0f : beta * c[static_cast<int64_t>(i) * ldc + j];
      for (int p = 0; p < k; ++p) {
        s += a[static_cast<int64_t>(i) * lda + p] * b[static_cast<int64_t>(p) * ldb + j];
      }
      c[static_cast<int64_t>(i) * ldc + j] = s;
    }
  }
}

void GemmTNRef(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
               float beta, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float s = beta == 0.0f ? 0.0f : beta * c[static_cast<int64_t>(i) * ldc + j];
      for (int p = 0; p < k; ++p) {
        s += a[static_cast<int64_t>(p) * lda + i] * b[static_cast<int64_t>(p) * ldb + j];
      }
      c[static_cast<int64_t>(i) * ldc + j] = s;
    }
  }
}

void GemmNTRef(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
               float beta, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float s = beta == 0.0f ? 0.0f : beta * c[static_cast<int64_t>(i) * ldc + j];
      for (int p = 0; p < k; ++p) {
        s += a[static_cast<int64_t>(i) * lda + p] * b[static_cast<int64_t>(j) * ldb + p];
      }
      c[static_cast<int64_t>(i) * ldc + j] = s;
    }
  }
}

void GemmNN(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float beta,
            float* c, int ldc) {
  GemmNNImpl(m, n, k, a, lda, b, ldb, beta, nullptr, Activation::kNone, c, ldc);
}

void GemmTN(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float beta,
            float* c, int ldc) {
  if (m <= 0 || n <= 0) {
    return;
  }
  CountGemm(/*int8=*/false, m, n, k);
#ifdef CDMPP_HAVE_AVX2_KERNELS
  if (UseAvx2()) {
    detail::GemmTNPanelAvx2(0, m, n, k, a, lda, b, ldb, beta, c, ldc);
    return;
  }
#endif
  detail::GemmTNPanelScalar(0, m, n, k, a, lda, b, ldb, beta, c, ldc);
}

void GemmNT(int m, int n, int k, const float* a, int lda, const float* b, int ldb, float beta,
            float* c, int ldc) {
  if (m <= 0 || n <= 0) {
    return;
  }
  CountGemm(/*int8=*/false, m, n, k);
#ifdef CDMPP_HAVE_AVX2_KERNELS
  if (UseAvx2()) {
    detail::GemmNTPanelAvx2(0, m, n, k, a, lda, b, ldb, beta, c, ldc);
    return;
  }
#endif
  detail::GemmNTPanelScalar(0, m, n, k, a, lda, b, ldb, beta, c, ldc);
}

void GemmBiasAct(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
                 const float* bias, Activation act, float* c, int ldc) {
  GemmNNImpl(m, n, k, a, lda, b, ldb, /*beta=*/0.0f, bias, act, c, ldc);
}

}  // namespace kernels
}  // namespace cdmpp
