#include "src/nn/transformer.h"

namespace cdmpp {

TransformerEncoderLayer::TransformerEncoderLayer(int d_model, int num_heads, int d_ff, Rng* rng)
    : attn_(d_model, num_heads, rng), norm1_(d_model), norm2_(d_model) {
  ff1_ = std::make_unique<Linear>(d_model, d_ff, rng);
  ff2_ = std::make_unique<Linear>(d_ff, d_model, rng);
}

Matrix* TransformerEncoderLayer::Forward(const Matrix& x, int seq_len, Workspace* ws,
                                         Cache* cache) const {
  const bool train = cache != nullptr;
  Matrix* attn_out = attn_.Forward(x, seq_len, ws, train ? &cache->attn : nullptr);
  attn_out->AddInPlace(x);  // residual
  Matrix* h = norm1_.Forward(*attn_out, ws, train ? &cache->norm1 : nullptr);

  // FFN hidden layer: bias + ReLU fused into the GEMM epilogue.
  Matrix* ff1 = ff1_->Forward(*h, ws, train ? &cache->ff1 : nullptr, kernels::Activation::kRelu);
  Matrix* ff = ff2_->Forward(*ff1, ws, train ? &cache->ff2 : nullptr);
  ff->AddInPlace(*h);  // residual
  return norm2_.Forward(*ff, ws, train ? &cache->norm2 : nullptr);
}

Matrix* TransformerEncoderLayer::Backward(const Cache& cache, const Matrix& dy, Workspace* ws,
                                          const Shard& shard) {
  // d_ff_sum flows to both the FFN branch and the residual (h): the FFN's
  // input gradient is added onto it in place, making it dh. Once norm1 has
  // read dh, its buffer carries the layer's result, and everything after it
  // is released.
  Matrix* dh = norm2_.Backward(cache.norm2, dy, ws, shard);
  const size_t scratch = ws->Mark();
  const Matrix& d_ff1 = *ff2_->Backward(cache.ff2, *dh, ws, shard);
  ff1_->BackwardInto(cache.ff1, d_ff1, ws, shard, dh, /*accumulate=*/true);
  ws->Rewind(scratch);

  const Matrix& d_attn_sum = *norm1_.Backward(cache.norm1, *dh, ws, shard);
  const Matrix& d_attn = *attn_.Backward(cache.attn, d_attn_sum, ws, shard);
  Matrix* dx = dh;
  for (size_t i = 0; i < dx->size(); ++i) {
    dx->data()[i] = d_attn.data()[i] + d_attn_sum.data()[i];
  }
  ws->Rewind(scratch);
  return dx;
}

void TransformerEncoderLayer::CollectParams(std::vector<Param*>* out) {
  attn_.CollectParams(out);
  norm1_.CollectParams(out);
  ff1_->CollectParams(out);
  ff2_->CollectParams(out);
  norm2_.CollectParams(out);
}

TransformerEncoder::TransformerEncoder(int d_model, int num_heads, int d_ff, int num_layers,
                                       Rng* rng)
    : d_model_(d_model) {
  CDMPP_CHECK(num_layers >= 1);
  for (int i = 0; i < num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(d_model, num_heads, d_ff, rng));
  }
}

Matrix* TransformerEncoder::Forward(const Matrix& x, int seq_len, Workspace* ws,
                                    Cache* cache) const {
  if (cache != nullptr) {
    cache->layers.resize(layers_.size());
  }
  const Matrix* h = &x;
  Matrix* out = nullptr;
  for (size_t i = 0; i < layers_.size(); ++i) {
    out = layers_[i]->Forward(*h, seq_len, ws, cache != nullptr ? &cache->layers[i] : nullptr);
    h = out;
  }
  return out;
}

Matrix* TransformerEncoder::Backward(const Cache& cache, const Matrix& dy, Workspace* ws,
                                     const Shard& shard) {
  const Matrix* d = &dy;
  Matrix* dx = nullptr;
  for (size_t i = layers_.size(); i-- > 0;) {
    dx = layers_[i]->Backward(cache.layers[i], *d, ws, shard);
    d = dx;
  }
  return dx;
}

void TransformerEncoder::CollectParams(std::vector<Param*>* out) {
  for (auto& layer : layers_) {
    layer->CollectParams(out);
  }
}

QuantizedTransformerEncoderLayer::QuantizedTransformerEncoderLayer(
    const TransformerEncoderLayer& layer, const LayerNorm* input_norm)
    : attn_(layer.attn(),
            input_norm != nullptr ? LayerNormActAbsMax(*input_norm) : std::vector<float>{}),
      norm1_(layer.norm1()),
      ff1_(layer.ff1(), BalancedColumnScales(LayerNormActAbsMax(layer.norm1()),
                                             layer.ff1().weight())),
      ff2_(layer.ff2()),
      norm2_(layer.norm2()) {}

Matrix* QuantizedTransformerEncoderLayer::Forward(const Matrix& x, int seq_len,
                                                  Workspace* ws) const {
  // Mirrors the fp32 layer exactly, with the weight GEMMs swapped for their
  // quantized snapshots. Residual adds and LayerNorms are fp32.
  Matrix* attn_out = attn_.Forward(x, seq_len, ws);
  attn_out->AddInPlace(x);  // residual
  Matrix* h = norm1_.Forward(*attn_out, ws);

  // FFN hidden layer: bias + ReLU fused into the int8 dequant epilogue.
  Matrix* ff1 = ff1_.Forward(*h, ws, kernels::Activation::kRelu);
  Matrix* ff = ff2_.Forward(*ff1, ws);
  ff->AddInPlace(*h);  // residual
  return norm2_.Forward(*ff, ws);
}

QuantizedTransformerEncoder::QuantizedTransformerEncoder(const TransformerEncoder& encoder)
    : d_model_(encoder.d_model()) {
  layers_.reserve(encoder.num_layers());
  for (size_t i = 0; i < encoder.num_layers(); ++i) {
    // Post-LN stacking: layer i's attention input is layer i-1's norm2
    // output; layer 0's input is the (fp32) input projection, which has no
    // static channel profile to fold.
    const LayerNorm* input_norm = i > 0 ? &encoder.layer(i - 1).norm2() : nullptr;
    layers_.emplace_back(encoder.layer(i), input_norm);
  }
}

Matrix* QuantizedTransformerEncoder::Forward(const Matrix& x, int seq_len,
                                             Workspace* ws) const {
  Matrix* h = layers_[0].Forward(x, seq_len, ws);
  for (size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i].Forward(*h, seq_len, ws);
  }
  return h;
}

}  // namespace cdmpp
