// Multi-head self-attention over batches of equal-length sequences.
//
// Inputs are packed row-major as [batch * seq_len, d_model]. Because CDMPP
// batches compact ASTs by leaf count (paper §5.1), every batch has a uniform
// sequence length and no padding/masking is needed — this is exactly the
// efficiency claim of the compact-AST design.
#ifndef SRC_NN_ATTENTION_H_
#define SRC_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "src/nn/layers.h"
#include "src/nn/quantize.h"

namespace cdmpp {

class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int d_model, int num_heads, Rng* rng);

  // What Backward needs. The projections' caches hold Q (unscaled), K and V
  // as their outputs; `probs` holds every (sample, head) block's [seq_len,
  // seq_len] softmax weights, block i = sample * num_heads + head at rows
  // [i * seq_len, (i + 1) * seq_len).
  struct Cache {
    Linear::Cache q_proj, k_proj, v_proj, out_proj;
    Matrix* probs = nullptr;
    int seq_len = 0;
    int batch = 0;
  };

  // x: [batch * seq_len, d_model]. Returns the same shape. Per-head Q/K/V
  // blocks are addressed in place inside the packed [batch*seq_len, d_model]
  // activations via the kernels' leading-dimension parameters — zero block
  // extraction copies, in the forward and the backward. Each sample's rows
  // depend on that sample only, so any batch split gives the same rows.
  Matrix* Forward(const Matrix& x, int seq_len, Workspace* ws, Cache* cache = nullptr) const;
  Matrix* Backward(const Cache& cache, const Matrix& dy, Workspace* ws, const Shard& shard = {});
  void CollectParams(std::vector<Param*>* out) override;

  int d_model() const { return d_model_; }
  int num_heads() const { return num_heads_; }

  // Read-only projection views: the int8 calibration path
  // (QuantizedMultiHeadSelfAttention) snapshots these into packed quantized
  // form.
  const Linear& wq() const { return *wq_; }
  const Linear& wk() const { return *wk_; }
  const Linear& wv() const { return *wv_; }
  const Linear& wo() const { return *wo_; }

 private:
  int d_model_;
  int num_heads_;
  int d_head_;
  std::unique_ptr<Linear> wq_, wk_, wv_, wo_;

};

// The int8 mirror of MultiHeadSelfAttention for the serving hot path
// (CDMPP_PRECISION=int8): the four weight GEMMs — Q/K/V projections and the
// output projection — run through the quantized kernel tier, while the
// activation×activation score/context GEMMs stay fp32 (their operands are
// both dynamic, a different quantization problem — ROADMAP follow-on). The
// score/context block loop is the SAME code the fp32 path runs (shared
// helper), and QKV quantization uses row-deterministic per-row scales, so
// the quantized path keeps batch-size invariance.
//
// `act_absmax` is a data-free per-input-channel magnitude estimate for x
// (from the preceding LayerNorm when there is one); non-empty enables the
// per-channel activation-scale variant on the Q/K/V projections with ONE
// scale vector balanced against all three weights (multi-consumer
// BalancedColumnScales), so the forward quantizes x once and feeds the same
// codes to all three GEMMs (ForwardPreQuantized). Empty (the
// encoder's first layer, whose input comes from the fp32 input projection
// with no static channel profile) keeps Q/K/V fp32 entirely: measured on the
// serving fixtures, plain per-row quantization there breached the 1%
// end-to-end agreement contract — pre-softmax noise compounds through every
// downstream stage. The output projection is always quantized with plain
// per-row activation scales: its input is the attention context, whose
// channel profile is data-dependent, and its noise enters post-softmax.
//
// Calibrated, immutable snapshot: construction is mutating-world only,
// Forward is const and thread-safe for concurrent readers.
class QuantizedMultiHeadSelfAttention {
 public:
  QuantizedMultiHeadSelfAttention(const MultiHeadSelfAttention& attn,
                                  const std::vector<float>& act_absmax);

  // x: [batch * seq_len, d_model]; same contract as the fp32 inference
  // Forward.
  Matrix* Forward(const Matrix& x, int seq_len, Workspace* ws) const;

  int d_model() const { return d_model_; }

 private:
  int d_model_;
  int num_heads_;
  int d_head_;
  std::vector<QuantizedLinear> qkv_;  // {q, k, v} when a channel profile exists
  std::vector<Linear> fp32_qkv_;      // {q, k, v} fp32 copies otherwise
  QuantizedLinear wo_;
};

}  // namespace cdmpp

#endif  // SRC_NN_ATTENTION_H_
