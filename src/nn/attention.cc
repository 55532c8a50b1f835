#include "src/nn/attention.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.h"

namespace cdmpp {

namespace {

// The per-(sample, head) fp32 score/context loop shared verbatim by the fp32
// and int8 attention forwards (only the Q/K/V/output *projections* differ
// between the two tiers; the activation×activation GEMMs are identical).
// q_all must already carry the folded 1/sqrt(d_head) softmax scale. Every
// (sample, head) writes its own disjoint [seq_len, d_head] block of
// `context`, so no zero-fill or reduction is needed, and a block's
// values depend on its own sample only. Each block's scores/softmax land in
// its own slice of `probs` when the caller keeps them for Backward;
// otherwise one [seq_len, seq_len] scores buffer from `ws` serves every
// block in turn.
void AttentionContext(const Matrix& q_all, const Matrix& k_all, const Matrix& v_all, int batch,
                      int seq_len, int num_heads, int d_head, int d_model, Matrix* probs,
                      Matrix* context, Workspace* ws) {
  float* scratch = probs != nullptr ? nullptr : ws->NewMatrix(seq_len, seq_len)->data();
  const int blocks = batch * num_heads;
  for (int i = 0; i < blocks; ++i) {
    const int b = i / num_heads;
    const int h = i % num_heads;
    const float* q = q_all.Row(b * seq_len) + h * d_head;
    const float* k = k_all.Row(b * seq_len) + h * d_head;
    const float* v = v_all.Row(b * seq_len) + h * d_head;
    float* ctx = context->Row(b * seq_len) + h * d_head;
    float* scores = probs != nullptr ? probs->Row(i * seq_len) : scratch;
    // scores = (Q/sqrt(d))·Kᵀ directly on the packed layout
    // (lda/ldb = d_model).
    kernels::GemmNT(seq_len, seq_len, d_head, q, d_model, k, d_model,
                    /*beta=*/0.0f, scores, seq_len);
    SoftmaxRows(scores, seq_len, seq_len);
    // context block = softmax(scores)·V, written in place.
    kernels::GemmNN(seq_len, d_head, seq_len, scores, seq_len, v, d_model,
                    /*beta=*/0.0f, ctx, d_model);
  }
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(int d_model, int num_heads, Rng* rng)
    : d_model_(d_model), num_heads_(num_heads), d_head_(d_model / num_heads) {
  CDMPP_CHECK(d_model % num_heads == 0);
  wq_ = std::make_unique<Linear>(d_model, d_model, rng);
  wk_ = std::make_unique<Linear>(d_model, d_model, rng);
  wv_ = std::make_unique<Linear>(d_model, d_model, rng);
  wo_ = std::make_unique<Linear>(d_model, d_model, rng);
}

Matrix* MultiHeadSelfAttention::Forward(const Matrix& x, int seq_len, Workspace* ws,
                                        Cache* cache) const {
  // Whole-call wall time on the calling thread. No-op unless the serving
  // layer bound a sampled trace to this thread.
  obs::ScopedSpan span(obs::Stage::kAttention);
  CDMPP_CHECK(seq_len > 0);
  CDMPP_CHECK(x.rows() % seq_len == 0);
  CDMPP_CHECK(x.cols() == d_model_);
  const int batch = x.rows() / seq_len;
  const bool train = cache != nullptr;

  Matrix* q_all = wq_->Forward(x, ws, train ? &cache->q_proj : nullptr);
  Matrix* k_all = wk_->Forward(x, ws, train ? &cache->k_proj : nullptr);
  Matrix* v_all = wv_->Forward(x, ws, train ? &cache->v_proj : nullptr);

  Matrix* context = ws->NewMatrix(x.rows(), d_model_);
  if (train) {
    cache->probs = ws->NewMatrix(batch * num_heads_ * seq_len, seq_len);
    cache->seq_len = seq_len;
    cache->batch = batch;
  }
  // The 1/sqrt(d_head) softmax scale is folded into the Q operand — one pass
  // over [rows, d_model] instead of a [L, L] pass per block. Training keeps
  // the cached Q unscaled (Backward's dscores carry the factor to both dq
  // and dk), so it scales a copy. The copy and the scores scratch are dead
  // once the context exists: their slots go to the output projection.
  const size_t scratch = ws->Mark();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  Matrix* q_scaled = q_all;
  if (train) {
    q_scaled = ws->NewMatrix(q_all->rows(), q_all->cols());
    std::copy(q_all->data(), q_all->data() + q_all->size(), q_scaled->data());
  }
  q_scaled->Scale(scale);
  AttentionContext(*q_scaled, *k_all, *v_all, batch, seq_len, num_heads_, d_head_, d_model_,
                   train ? cache->probs : nullptr, context, ws);
  ws->Rewind(scratch);
  return wo_->Forward(*context, ws, train ? &cache->out_proj : nullptr);
}

QuantizedMultiHeadSelfAttention::QuantizedMultiHeadSelfAttention(
    const MultiHeadSelfAttention& attn, const std::vector<float>& act_absmax)
    : d_model_(attn.d_model()),
      num_heads_(attn.num_heads()),
      d_head_(attn.d_model() / attn.num_heads()),
      wo_(attn.wo()) {
  if (act_absmax.empty()) {
    // No static channel profile for the input (the encoder's first layer,
    // fed by the fp32 input projection): keep Q/K/V fp32. Measured: plain
    // per-row quantization here is what pushed full-encoder agreement past
    // the 1% contract — the noise enters before every downstream stage and
    // the softmax's exponentials are sensitive to it.
    fp32_qkv_.reserve(3);
    fp32_qkv_.push_back(attn.wq());
    fp32_qkv_.push_back(attn.wk());
    fp32_qkv_.push_back(attn.wv());
  } else {
    // ONE column-scale vector balanced against all three projection weights:
    // sharing the scales (and therefore the quantized input codes) lets the
    // forward quantize x once and run three GEMMs over the same codes —
    // measured, the per-row quantize pass is the dominant non-GEMM cost of
    // the int8 encoder, so collapsing 3 passes to 1 here is a straight
    // serving win over marginally finer per-projection balance.
    const std::vector<float> shared_scales = BalancedColumnScales(
        act_absmax, {&attn.wq().weight(), &attn.wk().weight(), &attn.wv().weight()});
    qkv_.reserve(3);
    qkv_.emplace_back(attn.wq(), shared_scales);
    qkv_.emplace_back(attn.wk(), shared_scales);
    qkv_.emplace_back(attn.wv(), shared_scales);
  }
}

Matrix* QuantizedMultiHeadSelfAttention::Forward(const Matrix& x, int seq_len,
                                                 Workspace* ws) const {
  // Same span discipline as the fp32 path: whole-call wall time on the
  // calling thread.
  obs::ScopedSpan span(obs::Stage::kAttention);
  CDMPP_CHECK(seq_len > 0);
  CDMPP_CHECK(x.rows() % seq_len == 0);
  CDMPP_CHECK(x.cols() == d_model_);
  const int batch = x.rows() / seq_len;

  // The three input projections share ONE quantization of x (the constructor
  // gave them identical folded column scales) with row-deterministic per-row
  // scales, so batch-size invariance holds, and the quantize pass runs once
  // instead of three times. Without a
  // channel profile the fp32 copies run instead (see the constructor).
  Matrix* q_all;
  Matrix* k_all;
  Matrix* v_all;
  if (!qkv_.empty()) {
    const int m = x.rows();
    const int ldq = 2 * qkv_[0].k2();
    int16_t* qx = ws->NewI16(static_cast<size_t>(m) * ldq);
    Matrix* row_scales = ws->NewMatrix(m, 1);
    {
      obs::ScopedSpan qspan(obs::Stage::kQuantize);
      QuantizeActivationsPerRowScaled(m, d_model_, x.data(), x.cols(),
                                      qkv_[0].inv_col_scales().data(), qx, ldq,
                                      row_scales->data());
    }
    q_all = qkv_[0].ForwardPreQuantized(m, qx, ldq, row_scales->data(), ws);
    k_all = qkv_[1].ForwardPreQuantized(m, qx, ldq, row_scales->data(), ws);
    v_all = qkv_[2].ForwardPreQuantized(m, qx, ldq, row_scales->data(), ws);
  } else {
    q_all = fp32_qkv_[0].Forward(x, ws);
    k_all = fp32_qkv_[1].Forward(x, ws);
    v_all = fp32_qkv_[2].Forward(x, ws);
  }

  // Softmax scale folded into the (dequantized fp32) Q operand, identical
  // formulation to the fp32 path.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  q_all->Scale(scale);

  Matrix* context = ws->NewMatrix(x.rows(), d_model_);
  AttentionContext(*q_all, *k_all, *v_all, batch, seq_len, num_heads_, d_head_, d_model_,
                   /*probs=*/nullptr, context, ws);
  return wo_.Forward(*context, ws);
}

Matrix* MultiHeadSelfAttention::Backward(const Cache& cache, const Matrix& dy, Workspace* ws,
                                         const Shard& shard) {
  const int seq_len = cache.seq_len;
  const int rows = dy.rows();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  const Matrix& q_all = *cache.q_proj.y;  // unscaled
  const Matrix& k_all = *cache.k_proj.y;
  const Matrix& v_all = *cache.v_proj.y;

  // dcontext's buffer carries dx once the block loop has read it.
  Matrix* dcontext = wo_->Backward(cache.out_proj, dy, ws, shard);
  const size_t scratch = ws->Mark();
  // Every (sample, head) block writes its own disjoint block of dq/dk/dv,
  // and together the blocks cover them: no zero-fill. Blocks are read and
  // written in place in the packed layout (leading dimension d_model).
  Matrix* dq = ws->NewMatrix(rows, d_model_);
  Matrix* dk = ws->NewMatrix(rows, d_model_);
  Matrix* dv = ws->NewMatrix(rows, d_model_);
  float* dattn = ws->NewMatrix(seq_len, seq_len)->data();
  float* dscores = ws->NewMatrix(seq_len, seq_len)->data();
  const int ld = d_model_;
  for (int b = 0; b < cache.batch; ++b) {
    for (int h = 0; h < num_heads_; ++h) {
      const float* attn = cache.probs->Row((b * num_heads_ + h) * seq_len);
      const int64_t at = static_cast<int64_t>(b) * seq_len * ld + h * d_head_;
      const float* q = q_all.data() + at;
      const float* k = k_all.data() + at;
      const float* v = v_all.data() + at;
      const float* dout = dcontext->data() + at;

      // out = attn x v.
      kernels::GemmNT(seq_len, seq_len, d_head_, dout, ld, v, ld, /*beta=*/0.0f, dattn,
                      seq_len);
      kernels::GemmTN(seq_len, d_head_, seq_len, attn, seq_len, dout, ld, /*beta=*/0.0f,
                      dv->data() + at, ld);

      // Softmax backward: ds = attn * (dattn - rowsum(dattn * attn)).
      for (int i = 0; i < seq_len; ++i) {
        const float* arow = attn + static_cast<size_t>(i) * seq_len;
        const float* darow = dattn + static_cast<size_t>(i) * seq_len;
        float* dsrow = dscores + static_cast<size_t>(i) * seq_len;
        float dot = 0.0f;
        for (int j = 0; j < seq_len; ++j) {
          dot += darow[j] * arow[j];
        }
        for (int j = 0; j < seq_len; ++j) {
          dsrow[j] = arow[j] * (darow[j] - dot) * scale;
        }
      }

      // scores = (q * scale) x k^T; the cached q is unscaled, the scale above
      // carries the factor to both dq and dk.
      kernels::GemmNN(seq_len, d_head_, seq_len, dscores, seq_len, k, ld, /*beta=*/0.0f,
                      dq->data() + at, ld);
      kernels::GemmTN(seq_len, d_head_, seq_len, dscores, seq_len, q, ld, /*beta=*/0.0f,
                      dk->data() + at, ld);
    }
  }

  // dx = (dx_q + dx_k) + dx_v, each term added in place as it is computed.
  Matrix* dx = dcontext;
  wq_->BackwardInto(cache.q_proj, *dq, ws, shard, dx, /*accumulate=*/false);
  wk_->BackwardInto(cache.k_proj, *dk, ws, shard, dx, /*accumulate=*/true);
  wv_->BackwardInto(cache.v_proj, *dv, ws, shard, dx, /*accumulate=*/true);
  ws->Rewind(scratch);
  return dx;
}

void MultiHeadSelfAttention::CollectParams(std::vector<Param*>* out) {
  wq_->CollectParams(out);
  wk_->CollectParams(out);
  wv_->CollectParams(out);
  wo_->CollectParams(out);
}

}  // namespace cdmpp
