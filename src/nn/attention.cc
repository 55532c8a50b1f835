#include "src/nn/attention.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.h"
#include "src/support/parallel_for.h"

namespace cdmpp {

namespace {

// Copies the [seq_len, d_head] block for (sample, head) out of a packed
// [batch * seq_len, d_model] matrix into `out` (capacity-preserving resize:
// Backward reuses one hoisted block across every (sample, head) instead of
// churning a heap temporary per iteration).
void ExtractBlockInto(const Matrix& packed, int sample, int head, int seq_len, int d_head,
                      Matrix* out) {
  out->Resize(seq_len, d_head);
  for (int t = 0; t < seq_len; ++t) {
    const float* src = packed.Row(sample * seq_len + t) + head * d_head;
    float* dst = out->Row(t);
    for (int j = 0; j < d_head; ++j) {
      dst[j] = src[j];
    }
  }
}

// Adds a [seq_len, d_head] block back into the packed layout.
void AccumulateBlock(Matrix* packed, const Matrix& block, int sample, int head, int seq_len,
                     int d_head) {
  for (int t = 0; t < seq_len; ++t) {
    float* dst = packed->Row(sample * seq_len + t) + head * d_head;
    const float* src = block.Row(t);
    for (int j = 0; j < d_head; ++j) {
      dst[j] += src[j];
    }
  }
}

// The per-(sample, head) fp32 score/context loop shared verbatim by the fp32
// and int8 attention forwards (only the Q/K/V/output *projections* differ
// between the two tiers; the activation×activation GEMMs are identical).
// q_all must already carry the folded 1/sqrt(d_head) softmax scale. Every
// (sample, head) writes its own disjoint [seq_len, d_head] block of the
// returned context, so no zero-fill or reduction is needed — and the blocks
// split across cores. Each block's scores/softmax land in its own slice of
// `probs` when the caller keeps them for Backward; otherwise each forked
// chunk leases a scores scratch arena from the global WorkspacePool (the
// caller's `ws` stays single-owner). Per-element accumulation order inside
// each block is fixed by the kernels regardless of partition, so the output
// is bitwise identical for every thread count. Inner GEMMs of forked chunks
// run inline (nested ParallelFor is serial), which the kernels'
// partition-independence keeps bitwise too.
Matrix* AttentionContext(const Matrix& q_all, const Matrix& k_all, const Matrix& v_all,
                         int batch, int seq_len, int num_heads, int d_head, int d_model,
                         Matrix* probs, Workspace* ws) {
  Matrix* context = ws->NewMatrix(batch * seq_len, d_model);
  const int64_t blocks = static_cast<int64_t>(batch) * num_heads;
  // One chunk of the block loop: scratch is that chunk's private scores
  // buffer (unused with `probs`); all other reads/writes are disjoint per
  // block, so the arithmetic is the same whichever buffer backs it.
  auto process = [&](float* scratch, int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int b = static_cast<int>(i / num_heads);
      const int h = static_cast<int>(i % num_heads);
      const float* q = q_all.Row(b * seq_len) + h * d_head;
      const float* k = k_all.Row(b * seq_len) + h * d_head;
      const float* v = v_all.Row(b * seq_len) + h * d_head;
      float* ctx = context->Row(b * seq_len) + h * d_head;
      float* scores = probs != nullptr ? probs->Row(static_cast<int>(i) * seq_len) : scratch;
      // scores = (Q/sqrt(d))·Kᵀ directly on the packed layout
      // (lda/ldb = d_model).
      kernels::GemmNT(seq_len, seq_len, d_head, q, d_model, k, d_model,
                      /*beta=*/0.0f, scores, seq_len);
      SoftmaxRows(scores, seq_len, seq_len);
      // context block = softmax(scores)·V, written in place.
      kernels::GemmNN(seq_len, d_head, seq_len, scores, seq_len, v, d_model,
                      /*beta=*/0.0f, ctx, d_model);
    }
  };
  // ~2 GEMMs of 2*L*L*d_head flops per block, against the shared fork policy.
  const double flops =
      4.0 * static_cast<double>(blocks) * seq_len * static_cast<double>(seq_len) * d_head;
  ThreadPool& pool = ThreadPool::Global();
  if (!WorthForking(pool, blocks, flops)) {
    // Serial: scores from the caller's arena, zero synchronization — the
    // QPS-bound many-worker configuration (CDMPP_NUM_THREADS=1) never
    // touches the pool mutex.
    process(probs != nullptr ? nullptr : ws->NewMatrix(seq_len, seq_len)->data(), 0, blocks);
  } else if (probs != nullptr) {
    pool.ParallelFor(0, blocks, ParallelGrain(blocks),
                     [&](int64_t i0, int64_t i1) { process(nullptr, i0, i1); });
  } else {
    pool.ParallelForWithScratch(WorkspacePool::Global(), 0, blocks, ParallelGrain(blocks),
                                [&](Workspace* scratch, int64_t i0, int64_t i1) {
                                  process(scratch->NewMatrix(seq_len, seq_len)->data(), i0, i1);
                                });
  }
  return context;
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
  // Whole-call wall time on the calling thread, forked chunks included — the
  // span never reaches into the parallel region, so chunk scheduling and the
  // bitwise thread-count invariance are unaffected. No-op unless the serving
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

  // The 1/sqrt(d_head) softmax scale is folded into the Q operand — one pass
  // over [rows, d_model] instead of a [L, L] pass per block. Training keeps
  // the cached Q unscaled (Backward's dscores.Scale(scale) carries the factor
  // to both dq and dk), so it scales a copy.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  Matrix* q_scaled = q_all;
  if (train) {
    q_scaled = ws->NewMatrix(q_all->rows(), q_all->cols());
    std::copy(q_all->data(), q_all->data() + q_all->size(), q_scaled->data());
    cache->probs = ws->NewMatrix(batch * num_heads_ * seq_len, seq_len);
    cache->seq_len = seq_len;
    cache->batch = batch;
  }
  q_scaled->Scale(scale);

  Matrix* context = AttentionContext(*q_scaled, *k_all, *v_all, batch, seq_len, num_heads_,
                                     d_head_, d_model_, train ? cache->probs : nullptr, ws);
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
  // calling thread, never reaching into the parallel region.
  obs::ScopedSpan span(obs::Stage::kAttention);
  CDMPP_CHECK(seq_len > 0);
  CDMPP_CHECK(x.rows() % seq_len == 0);
  CDMPP_CHECK(x.cols() == d_model_);
  const int batch = x.rows() / seq_len;

  // The three input projections share ONE quantization of x (the constructor
  // gave them identical folded column scales), done before any fork with
  // row-deterministic per-row scales — both bitwise invariance contracts
  // hold, and the quantize pass runs once instead of three times. Without a
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

  Matrix* context = AttentionContext(*q_all, *k_all, *v_all, batch, seq_len, num_heads_,
                                     d_head_, d_model_, /*probs=*/nullptr, ws);
  return wo_.Forward(*context, ws);
}

Matrix MultiHeadSelfAttention::Backward(const Cache& cache, const Matrix& dy) {
  const int seq_len = cache.seq_len;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  const Matrix& q_all = *cache.q_proj.y;  // unscaled
  const Matrix& k_all = *cache.k_proj.y;
  const Matrix& v_all = *cache.v_proj.y;

  Matrix dcontext = wo_->Backward(cache.out_proj, dy);
  Matrix dq(dy.rows(), d_model_);
  Matrix dk(dy.rows(), d_model_);
  Matrix dv(dy.rows(), d_model_);

  // Hoisted block scratch, reused across every (sample, head).
  Matrix q, k, v, dout;
  Matrix dattn, dv_block, dscores, dq_block, dk_block;
  for (int b = 0; b < cache.batch; ++b) {
    for (int h = 0; h < num_heads_; ++h) {
      const float* attn = cache.probs->Row((b * num_heads_ + h) * seq_len);
      ExtractBlockInto(q_all, b, h, seq_len, d_head_, &q);
      ExtractBlockInto(k_all, b, h, seq_len, d_head_, &k);
      ExtractBlockInto(v_all, b, h, seq_len, d_head_, &v);
      ExtractBlockInto(dcontext, b, h, seq_len, d_head_, &dout);

      // out = attn x v.
      dattn.Resize(seq_len, seq_len);
      kernels::GemmNT(seq_len, seq_len, d_head_, dout.data(), d_head_, v.data(), d_head_,
                      /*beta=*/0.0f, dattn.data(), seq_len);
      dv_block.Resize(seq_len, d_head_);
      kernels::GemmTN(seq_len, d_head_, seq_len, attn, seq_len, dout.data(), d_head_,
                      /*beta=*/0.0f, dv_block.data(), d_head_);

      // Softmax backward: ds = attn * (dattn - rowsum(dattn * attn)).
      dscores.Resize(seq_len, seq_len);
      for (int i = 0; i < seq_len; ++i) {
        const float* arow = attn + static_cast<size_t>(i) * seq_len;
        float dot = 0.0f;
        for (int j = 0; j < seq_len; ++j) {
          dot += dattn.At(i, j) * arow[j];
        }
        for (int j = 0; j < seq_len; ++j) {
          dscores.At(i, j) = arow[j] * (dattn.At(i, j) - dot);
        }
      }
      dscores.Scale(scale);

      // scores = (q * scale) x k^T; the cached q is unscaled, the Scale above
      // carries the factor to both dq and dk.
      dq_block.Resize(seq_len, d_head_);
      kernels::GemmNN(seq_len, d_head_, seq_len, dscores.data(), seq_len, k.data(), d_head_,
                      /*beta=*/0.0f, dq_block.data(), d_head_);
      dk_block.Resize(seq_len, d_head_);
      kernels::GemmTN(seq_len, d_head_, seq_len, dscores.data(), seq_len, q.data(), d_head_,
                      /*beta=*/0.0f, dk_block.data(), d_head_);

      AccumulateBlock(&dq, dq_block, b, h, seq_len, d_head_);
      AccumulateBlock(&dk, dk_block, b, h, seq_len, d_head_);
      AccumulateBlock(&dv, dv_block, b, h, seq_len, d_head_);
    }
  }

  Matrix dx = wq_->Backward(cache.q_proj, dq);
  dx.AddInPlace(wk_->Backward(cache.k_proj, dk));
  dx.AddInPlace(wv_->Backward(cache.v_proj, dv));
  return dx;
}

void MultiHeadSelfAttention::CollectParams(std::vector<Param*>* out) {
  wq_->CollectParams(out);
  wk_->CollectParams(out);
  wv_->CollectParams(out);
  wo_->CollectParams(out);
}

}  // namespace cdmpp
