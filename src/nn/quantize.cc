#include "src/nn/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/nn/kernels_internal.h"
#include "src/obs/trace.h"
#include "src/support/check.h"
#include "src/support/cpu_features.h"

namespace cdmpp {

namespace {

// Round-to-nearest (current FP environment: ties to even) into [-qmax, qmax].
// Symmetric ranges (no -(qmax+1) code) keep the madd-based kernels' overflow
// analysis a simple magnitude product bound (see kernels.h).
inline int16_t QuantizeValue(float v, float inv_scale, float qmax) {
  float scaled = v * inv_scale;
  if (scaled > qmax) {
    scaled = qmax;
  } else if (scaled < -qmax) {
    scaled = -qmax;
  }
  return static_cast<int16_t>(std::lrintf(scaled));
}

// One body for the plain and per-channel-scaled row quantizers. `inv_col`
// is null for the plain path; the scaled path multiplies each element by its
// channel's 1/c_p in BOTH the absmax pass and the rounding pass (the same
// expression, so the row scale is exact for the scaled values). With unit
// scales the multiply by 1.0f is bitwise exact, so the scaled path with
// c_p = 1 reproduces the plain path bit for bit (pinned by quantize_test).
void QuantizeRowsImpl(int rows, int k, const float* x, int ldx, const float* inv_col,
                      int16_t* q, int ldq, float* scales) {
  const int k2 = (k + 1) / 2;
  CDMPP_CHECK(ldq >= 2 * k2);
  const float qmax = static_cast<float>(ActivationQMax(k));
  // Rows are independent (per-ROW scale, by design), so a row's codes and
  // scale never depend on the batch it arrives in.
#ifdef CDMPP_HAVE_AVX2_KERNELS
  // AVX2 hosts run the vectorized body (kernels_avx2.cc) — bitwise identical
  // to the scalar loop below (pinned by quantize_test), so this per-ISA
  // dispatch, unlike the fp32 GEMMs', changes no output anywhere: the
  // quantized tier's cross-ISA bitwise contract is preserved exactly. The
  // serving profile motivated it: at the encoder's k = 64 the scalar two-pass
  // quantizer cost more than the int8 GEMM saved.
  if (ActiveKernelIsa() == KernelIsa::kAvx2) {
    kernels::detail::QuantizeRowsPanelAvx2(0, rows, k, x, ldx, inv_col, qmax, q, ldq, scales);
    return;
  }
#endif
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = x + i * ldx;
    float absmax = 0.0f;
    if (inv_col != nullptr) {
      for (int p = 0; p < k; ++p) {
        absmax = std::max(absmax, std::abs(row[p] * inv_col[p]));
      }
    } else {
      for (int p = 0; p < k; ++p) {
        absmax = std::max(absmax, std::abs(row[p]));
      }
    }
    const float scale = absmax > 0.0f ? absmax / qmax : 1.0f;
    scales[i] = scale;
    const float inv_scale = 1.0f / scale;
    int16_t* qrow = q + i * ldq;
    if (inv_col != nullptr) {
      for (int p = 0; p < k; ++p) {
        qrow[p] = QuantizeValue(row[p] * inv_col[p], inv_scale, qmax);
      }
    } else {
      for (int p = 0; p < k; ++p) {
        qrow[p] = QuantizeValue(row[p], inv_scale, qmax);
      }
    }
    for (int p = k; p < 2 * k2; ++p) {
      qrow[p] = 0;  // pad pair: contributes exactly zero to the reduction
    }
  }
}

}  // namespace

void QuantizePackWeights(int k, int n, const float* w, int ldw,
                         kernels::PackedQ8Weights* out) {
  CDMPP_CHECK(k >= 0 && n >= 0);
  out->k = k;
  out->n = n;
  out->k2 = (k + 1) / 2;
  out->data.assign(static_cast<size_t>(out->k2) * n * 2, 0);
  out->scales.assign(static_cast<size_t>(n), 1.0f);
  for (int j = 0; j < n; ++j) {
    float absmax = 0.0f;
    for (int p = 0; p < k; ++p) {
      absmax = std::max(absmax, std::abs(w[static_cast<int64_t>(p) * ldw + j]));
    }
    const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    out->scales[static_cast<size_t>(j)] = scale;
    const float inv_scale = 1.0f / scale;
    for (int p = 0; p < k; ++p) {
      out->data[(static_cast<size_t>(p / 2) * n + j) * 2 + (p & 1)] =
          QuantizeValue(w[static_cast<int64_t>(p) * ldw + j], inv_scale, 127.0f);
    }
  }
}

void QuantizeActivationsPerRow(int rows, int k, const float* x, int ldx, int16_t* q, int ldq,
                               float* scales) {
  QuantizeRowsImpl(rows, k, x, ldx, /*inv_col=*/nullptr, q, ldq, scales);
}

void QuantizeActivationsPerRowScaled(int rows, int k, const float* x, int ldx,
                                     const float* inv_col_scales, int16_t* q, int ldq,
                                     float* scales) {
  CDMPP_CHECK(inv_col_scales != nullptr);
  QuantizeRowsImpl(rows, k, x, ldx, inv_col_scales, q, ldq, scales);
}

std::vector<float> LayerNormActAbsMax(const LayerNorm& ln) {
  const Matrix& g = ln.gamma();
  const Matrix& b = ln.beta();
  CDMPP_CHECK(g.size() == b.size());
  std::vector<float> est(g.size());
  for (size_t p = 0; p < est.size(); ++p) {
    // |gamma_p * z + beta_p| <= |gamma_p| * |z| + |beta_p| with z the
    // row-normalized activation (|z| ~ O(1)); the common |z| factor is a
    // global scale, which BalancedColumnScales' ratio and the per-row
    // dynamic scale both absorb exactly — only relative magnitudes matter.
    est[p] = std::abs(g.data()[p]) + std::abs(b.data()[p]);
  }
  return est;
}

std::vector<float> BalancedColumnScales(const std::vector<float>& act_absmax,
                                        const Matrix& weight) {
  return BalancedColumnScales(act_absmax, {&weight});
}

std::vector<float> BalancedColumnScales(const std::vector<float>& act_absmax,
                                        const std::vector<const Matrix*>& weights) {
  CDMPP_CHECK(!weights.empty());
  const int k = weights.front()->rows();
  CDMPP_CHECK(static_cast<int>(act_absmax.size()) == k);
  std::vector<float> wrow(static_cast<size_t>(k), 0.0f);
  float wmax = 0.0f;
  float amax = 0.0f;
  for (const Matrix* weight : weights) {
    CDMPP_CHECK(weight->rows() == k);
    const int n = weight->cols();
    for (int p = 0; p < k; ++p) {
      float m = wrow[static_cast<size_t>(p)];
      for (int j = 0; j < n; ++j) {
        m = std::max(m, std::abs(weight->At(p, j)));
      }
      wrow[static_cast<size_t>(p)] = m;
    }
  }
  for (int p = 0; p < k; ++p) {
    wmax = std::max(wmax, wrow[static_cast<size_t>(p)]);
    amax = std::max(amax, act_absmax[static_cast<size_t>(p)]);
  }
  std::vector<float> scales(static_cast<size_t>(k), 1.0f);
  if (wmax <= 0.0f || amax <= 0.0f) {
    return scales;  // degenerate layer: neutral scales, plain-path behavior
  }
  const float a_floor = 1e-3f * amax;
  const float w_floor = 1e-3f * wmax;
  for (int p = 0; p < k; ++p) {
    const float a = std::max(act_absmax[static_cast<size_t>(p)], a_floor);
    const float ww = std::max(wrow[static_cast<size_t>(p)], w_floor);
    scales[static_cast<size_t>(p)] = std::sqrt(a / ww);
  }
  return scales;
}

QuantizedLinear::QuantizedLinear(const Linear& linear) {
  const Matrix& w = linear.weight();
  QuantizePackWeights(w.rows(), w.cols(), w.data(), w.cols(), &weights_);
  const Matrix& b = linear.bias();
  bias_.assign(b.data(), b.data() + b.size());
}

QuantizedLinear::QuantizedLinear(const Linear& linear, const std::vector<float>& col_scales) {
  const Matrix& w = linear.weight();
  const Matrix& b = linear.bias();
  bias_.assign(b.data(), b.data() + b.size());
  if (col_scales.empty()) {
    QuantizePackWeights(w.rows(), w.cols(), w.data(), w.cols(), &weights_);
    return;
  }
  const int k = w.rows();
  const int n = w.cols();
  CDMPP_CHECK(static_cast<int>(col_scales.size()) == k);
  // Fold c_p into the weight rows, then quantize per output channel as usual:
  // the column scales live entirely inside the packed weights and the scaled
  // activation quantizer — kernels and epilogue are untouched.
  std::vector<float> folded(static_cast<size_t>(k) * n);
  inv_col_scales_.resize(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    const float c = col_scales[static_cast<size_t>(p)];
    CDMPP_CHECK_MSG(c > 0.0f && std::isfinite(c), "column scales must be positive and finite");
    inv_col_scales_[static_cast<size_t>(p)] = 1.0f / c;
    for (int j = 0; j < n; ++j) {
      folded[static_cast<size_t>(p) * n + j] = w.At(p, j) * c;
    }
  }
  QuantizePackWeights(k, n, folded.data(), n, &weights_);
}

Matrix* QuantizedLinear::Forward(const Matrix& x, Workspace* ws,
                                 kernels::Activation act) const {
  CDMPP_CHECK(x.cols() == weights_.k);
  const int m = x.rows();
  const int ldq = 2 * weights_.k2;
  int16_t* q = ws->NewI16(static_cast<size_t>(m) * ldq);
  Matrix* row_scales = ws->NewMatrix(m, 1);
  {
    // The dequant half is fused into the GEMM epilogue below and accounted
    // to the enclosing stage; activation quantization is the separable part.
    obs::ScopedSpan span(obs::Stage::kQuantize);
    if (inv_col_scales_.empty()) {
      QuantizeActivationsPerRow(m, weights_.k, x.data(), x.cols(), q, ldq, row_scales->data());
    } else {
      QuantizeActivationsPerRowScaled(m, weights_.k, x.data(), x.cols(), inv_col_scales_.data(),
                                      q, ldq, row_scales->data());
    }
  }
  return ForwardPreQuantized(m, q, ldq, row_scales->data(), ws, act);
}

Matrix* QuantizedLinear::ForwardPreQuantized(int m, const int16_t* q, int ldq,
                                             const float* row_scales, Workspace* ws,
                                             kernels::Activation act) const {
  CDMPP_CHECK(ldq >= 2 * weights_.k2);
  Matrix* y = ws->NewMatrix(m, weights_.n);
  kernels::GemmS8S8BiasAct(m, q, ldq, weights_, row_scales, bias_.data(), act, y->data(),
                           y->cols());
  return y;
}

QuantizedMlp::QuantizedMlp(const Mlp& mlp, size_t num_fp32_tail_layers) {
  const size_t total = mlp.num_linear_layers();
  const size_t tail = std::min(num_fp32_tail_layers, total);
  layers_.reserve(total - tail);
  for (size_t i = 0; i < total - tail; ++i) {
    layers_.emplace_back(mlp.linear_layer(i));
  }
  fp32_tail_.reserve(tail);
  for (size_t i = total - tail; i < total; ++i) {
    fp32_tail_.push_back(mlp.linear_layer(i));  // calibration-time fp32 copy
  }
}

Matrix* QuantizedMlp::Forward(const Matrix& x, Workspace* ws) const {
  const size_t total = num_layers();
  const Matrix* h = &x;
  Matrix* out = nullptr;
  for (size_t i = 0; i < total; ++i) {
    const kernels::Activation act =
        i + 1 < total ? kernels::Activation::kRelu : kernels::Activation::kNone;
    out = i < layers_.size()
              ? layers_[i].Forward(*h, ws, act)
              : fp32_tail_[i - layers_.size()].Forward(*h, ws, /*cache=*/nullptr, act);
    h = out;
  }
  return out;
}

}  // namespace cdmpp
