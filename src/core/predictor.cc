#include "src/core/predictor.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/ml/cmd.h"
#include "src/ml/transforms.h"
#include "src/obs/trace.h"
#include "src/support/check.h"
#include "src/support/parallel_for.h"
#include "src/support/stats.h"

namespace cdmpp {

namespace {

constexpr double kSecondsToMs = 1e3;

// Transformed labels live in a standardized band around kLabelShift; clamping
// extrapolated predictions keeps the (exponential-tailed) inverse Box-Cox
// from exploding on an undertrained model.
double ClampTransformed(double t) {
  return std::clamp(t, kLabelShift - 6.0, kLabelShift + 6.0);
}

// Reshapes [B*L, D] -> [B, L*D] (row-major, so this is a pure view change).
void PackRowsInto(const Matrix& x, int batch, int seq_len, Matrix* out) {
  CDMPP_CHECK(x.rows() == batch * seq_len);
  CDMPP_CHECK(out->rows() == batch && out->cols() == seq_len * x.cols());
  for (int b = 0; b < batch; ++b) {
    float* dst = out->Row(b);
    for (int t = 0; t < seq_len; ++t) {
      const float* src = x.Row(b * seq_len + t);
      for (int j = 0; j < x.cols(); ++j) {
        dst[t * x.cols() + j] = src[j];
      }
    }
  }
}

}  // namespace

CdmppPredictor::CdmppPredictor(const PredictorConfig& config)
    : config_(config), rng_(config.seed) {
  input_proj_ = std::make_unique<Linear>(kFeatDim, config_.d_model, &rng_);
  encoder_ = std::make_unique<TransformerEncoder>(config_.d_model, config_.num_heads,
                                                  config_.d_ff, config_.num_layers, &rng_);
  device_mlp_ = std::make_unique<Mlp>(
      std::vector<int>{kDeviceFeatDim, config_.device_hidden_dim, config_.device_embed_dim},
      &rng_);
  std::vector<int> dec_dims;
  dec_dims.push_back(config_.z_dim + config_.device_embed_dim);
  for (int h : config_.decoder_hidden) {
    dec_dims.push_back(h);
  }
  dec_dims.push_back(1);
  decoder_ = std::make_unique<Mlp>(dec_dims, &rng_);
}

void CdmppPredictor::CollectAllParams(std::vector<Param*>* out) {
  input_proj_->CollectParams(out);
  encoder_->CollectParams(out);
  for (auto& [leaves, head] : leaf_heads_) {
    head->CollectParams(out);
  }
  device_mlp_->CollectParams(out);
  decoder_->CollectParams(out);
}

size_t CdmppPredictor::NumParams() {
  std::vector<Param*> params;
  CollectAllParams(&params);
  size_t n = 0;
  for (Param* p : params) {
    n += p->value.size();
  }
  return n;
}

void CdmppPredictor::EnsureHeads(const Dataset& ds, const std::vector<int>& indices) {
  bool added = false;
  for (const auto& [leaves, _] : GroupByLeafCount(ds, indices)) {
    if (leaf_heads_.find(leaves) == leaf_heads_.end()) {
      leaf_heads_[leaves] =
          std::make_unique<Linear>(leaves * config_.d_model, config_.z_dim, &rng_);
      added = true;
    }
  }
  if (added || optimizer_ == nullptr) {
    RebuildOptimizer();
  }
}

void CdmppPredictor::RebuildOptimizer() {
  params_.clear();
  CollectAllParams(&params_);
  if (config_.optimizer == OptimizerKind::kAdam) {
    optimizer_ = std::make_unique<Adam>(params_, config_.lr, config_.weight_decay);
  } else {
    optimizer_ = std::make_unique<Sgd>(params_, config_.lr);
  }
  if (config_.use_cyclic_lr) {
    scheduler_ =
        std::make_unique<CyclicLr>(config_.lr, config_.max_lr, config_.cyclic_half_cycle);
  } else {
    scheduler_ = std::make_unique<ConstantLr>(config_.lr);
  }
}

// Leases one arena per pool thread into shards_ for one training step or
// one sharded inference sweep, and returns them in reverse so the LIFO pool
// hands each shard its own warm arena back next time.
class CdmppPredictor::ShardsHeld {
 public:
  explicit ShardsHeld(CdmppPredictor* p) : p_(p) {
    p_->shards_.resize(static_cast<size_t>(ThreadPool::Global().num_threads()));
    for (ShardState& shard : p_->shards_) {
      shard.ws = WorkspacePool::Global().Acquire();
    }
  }
  ~ShardsHeld() {
    for (size_t i = p_->shards_.size(); i-- > 0;) {
      p_->shards_[i].ws.reset();
    }
  }
  ShardsHeld(const ShardsHeld&) = delete;
  ShardsHeld& operator=(const ShardsHeld&) = delete;

 private:
  CdmppPredictor* p_;
};

int CdmppPredictor::ShardedForward(const AstBatchView& view, const Batch& batch, bool train,
                                   Matrix* z) {
  const int rows = static_cast<int>(batch.sample_indices.size());
  const int count = std::min(static_cast<int>(shards_.size()), rows);
  CDMPP_CHECK(count > 0);
  for (int s = 0; s < count; ++s) {
    ShardState& shard = shards_[static_cast<size_t>(s)];
    shard.first_row = static_cast<int>(static_cast<int64_t>(rows) * s / count);
    const int last = static_cast<int>(static_cast<int64_t>(rows) * (s + 1) / count);
    shard.batch.seq_len = batch.seq_len;
    shard.batch.sample_indices.assign(batch.sample_indices.begin() + shard.first_row,
                                      batch.sample_indices.begin() + last);
  }
  ThreadPool::Global().ParallelFor(0, count, 1, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      ShardState& shard = shards_[static_cast<size_t>(s)];
      shard.ws->Reset();
      shard.out = ForwardBatch(view, shard.batch, /*int8=*/false, shard.ws.get(),
                               train ? &shard.cache : nullptr);
    }
  });
  if (z != nullptr) {
    z->Resize(rows, config_.z_dim + config_.device_embed_dim);
    for (int s = 0; s < count; ++s) {
      const Matrix& shard_z = *shards_[static_cast<size_t>(s)].out.z;
      std::copy(shard_z.data(), shard_z.data() + shard_z.size(),
                z->Row(shards_[static_cast<size_t>(s)].first_row));
    }
  }
  return count;
}

template <typename Emit>
void CdmppPredictor::ShardedInference(const Dataset& ds, const std::vector<int>& indices,
                                      Emit&& emit) {
  CDMPP_CHECK(fitted_);
  EnsureHeads(ds, indices);
  const AstBatchView view = DatasetView(ds, indices);
  ShardsHeld held(this);
  BatchPlan plan;
  plan.Build(view, config_.batch_size);
  for (int bi = 0; bi < plan.num_batches(); ++bi) {
    const int count = ShardedForward(view, plan.batch(bi), /*train=*/false);
    for (int s = 0; s < count; ++s) {
      const ShardState& shard = shards_[static_cast<size_t>(s)];
      for (size_t i = 0; i < shard.batch.sample_indices.size(); ++i) {
        emit(shard.batch.sample_indices[i], shard.out, static_cast<int>(i));
      }
    }
  }
}

void CdmppPredictor::ShardedBackward(int count, const float* dpred, const float* dz_extra) {
  const int z_width = config_.z_dim + config_.device_embed_dim;
  // noexcept: a shard that threw out of Backward would never pass the
  // GradTurns it still owes, and every later shard would wait on them
  // forever. An exception here (an arena that cannot grow) therefore ends
  // the process, like a failed CDMPP_CHECK, instead of hanging the pool.
  ThreadPool::Global().ParallelFor(0, count, 1, [&](int64_t s0, int64_t s1) noexcept {
    for (int64_t s = s0; s < s1; ++s) {
      ShardState& shard = shards_[static_cast<size_t>(s)];
      const int row = shard.first_row;
      Backward(shard.cache, dpred != nullptr ? dpred + row : nullptr,
               dz_extra != nullptr ? dz_extra + static_cast<int64_t>(row) * z_width : nullptr,
               shard.ws.get(), Shard{static_cast<int>(s), count});
    }
  });
}

void CdmppPredictor::Backward(const ForwardCache& cache, const float* dpred,
                              const float* dz_extra, Workspace* ws, const Shard& shard) {
  const int b = cache.batch;
  const int l = cache.seq_len;
  Matrix* dz = nullptr;
  if (dpred != nullptr) {
    Matrix* dp = ws->NewMatrix(b, 1);
    std::copy(dpred, dpred + b, dp->data());
    dz = decoder_->Backward(cache.decoder, *dp, ws, shard);
  } else {
    dz = ws->NewMatrix(b, config_.z_dim + config_.device_embed_dim);
    dz->Zero();
  }
  if (dz_extra != nullptr) {
    for (size_t i = 0; i < dz->size(); ++i) {
      dz->data()[i] += dz_extra[i];
    }
  }

  Matrix* dzx = ws->NewMatrix(b, config_.z_dim);
  Matrix* dzv = ws->NewMatrix(b, config_.device_embed_dim);
  for (int i = 0; i < b; ++i) {
    const float* row = dz->Row(i);
    std::copy(row, row + config_.z_dim, dzx->Row(i));
    std::copy(row + config_.z_dim, row + dz->cols(), dzv->Row(i));
  }
  device_mlp_->Backward(cache.device_mlp, *dzv, ws, shard);
  // The head's input gradient [B, L*D] is the encoder output's [B*L, D] in
  // the same row-major bytes: reshaping it is the unpack.
  Matrix* dh = leaf_heads_.at(l)->Backward(cache.head, *dzx, ws, shard);
  dh->Resize(b * l, config_.d_model);
  // The input projection's input is the feature matrix: no gradient needed.
  input_proj_->BackwardInto(cache.input_proj, *encoder_->Backward(cache.encoder, *dh, ws, shard),
                            ws, shard, /*dx=*/nullptr, /*accumulate=*/false);
}

void CdmppPredictor::OptimizerStep() {
  // Clipping by the global gradient norm; the update applies the scale.
  float clip_scale = 1.0f;
  if (config_.grad_clip > 0.0) {
    double norm_sq = 0.0;
    for (Param* p : params_) {
      norm_sq += p->grad.SquaredNorm();
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > config_.grad_clip) {
      clip_scale = static_cast<float>(config_.grad_clip / norm);
    }
  }
  ThreadPool& pool = ThreadPool::Global();
  optimizer_->BeginStep();
  const int64_t total = optimizer_->num_values();
  // One value range per pool thread (finer chunks measured no faster).
  const int64_t grain = (total + pool.num_threads() - 1) / pool.num_threads();
  pool.ParallelFor(0, total, grain,
                   [&](int64_t v0, int64_t v1) { optimizer_->Update(v0, v1, clip_scale); });
}

double CdmppPredictor::TrainStep(const AstBatchView& view, const Batch& batch,
                                 const float* targets, const CmdPass* cmd) {
  CDMPP_CHECK(fitted_ && optimizer_ != nullptr);
  ShardsHeld held(this);
  optimizer_->set_learning_rate(scheduler_->LrAt(global_step_));

  // ---- Prediction loss pass. ----
  const size_t n = batch.sample_indices.size();
  const int count = ShardedForward(view, batch, /*train=*/true);
  step_preds_.resize(n);
  step_targets_.resize(n);
  step_grad_.resize(n);
  for (int s = 0; s < count; ++s) {
    const ShardState& shard = shards_[static_cast<size_t>(s)];
    for (int i = 0; i < shard.out.preds->rows(); ++i) {
      step_preds_[static_cast<size_t>(shard.first_row + i)] = shard.out.preds->At(i, 0);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    step_targets_[i] = targets[batch.sample_indices[i]];
  }
  double step_loss = ComputeLoss(config_.loss, step_preds_.data(), step_targets_.data(), n,
                                 config_.lambda_mape, step_grad_.data());
  ShardedBackward(count, step_grad_.data(), nullptr);

  // ---- CMD regularizer pass. ----
  if (cmd != nullptr) {
    // The constant side needs no cache: only its latents enter the CMD.
    ShardedForward(view, *cmd->const_side, /*train=*/false, &z_const_);
    const int grad_count = ShardedForward(view, *cmd->grad_side, /*train=*/true, &z_grad_);
    dz_grad_.Resize(z_grad_.rows(), z_grad_.cols());
    dz_grad_.Zero();
    dz_const_.Resize(z_const_.rows(), z_const_.cols());
    dz_const_.Zero();
    const double distance = CmdDistanceWithGrad(z_grad_, z_const_, config_.cmd_moments,
                                                /*span=*/-1.0, cmd->alpha, &dz_grad_, &dz_const_);
    ShardedBackward(grad_count, nullptr, dz_grad_.data());
    step_loss += cmd->alpha * distance;
  }

  OptimizerStep();
  ++global_step_;
  return step_loss;
}

std::vector<Matrix> CdmppPredictor::SnapshotParams() {
  std::vector<Param*> params;
  CollectAllParams(&params);
  std::vector<Matrix> snapshot;
  snapshot.reserve(params.size());
  for (Param* p : params) {
    snapshot.push_back(p->value);
  }
  return snapshot;
}

void CdmppPredictor::RestoreParams(const std::vector<Matrix>& snapshot) {
  std::vector<Param*> params;
  CollectAllParams(&params);
  CDMPP_CHECK(params.size() == snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snapshot[i];
  }
}

std::vector<Matrix> CdmppPredictor::ExportParams() { return SnapshotParams(); }

void CdmppPredictor::ImportParams(const std::vector<Matrix>& params) {
  RestoreParams(params);
}

TrainStats CdmppPredictor::Pretrain(const Dataset& ds, const std::vector<int>& train,
                                    const std::vector<int>& valid) {
  CDMPP_CHECK(!train.empty());
  EnsureHeads(ds, train);
  if (!valid.empty()) {
    EnsureHeads(ds, valid);
  }
  scaler_.Fit(StackLeafRows(ds, train));
  label_transform_ = MakeLabelTransform(config_.norm);
  std::vector<double> labels_ms = GatherLabels(ds, train);
  for (double& y : labels_ms) {
    y *= kSecondsToMs;
  }
  label_transform_->Fit(labels_ms);
  fitted_ = true;
  return RunTraining(ds, train, valid, config_.epochs, /*alpha=*/0.0, {}, {});
}

TrainStats CdmppPredictor::Finetune(const Dataset& ds, const std::vector<int>& labeled,
                                    const std::vector<int>& source_domain,
                                    const std::vector<int>& target_domain, int epochs) {
  CDMPP_CHECK(fitted_);
  std::vector<int> all = labeled;
  all.insert(all.end(), source_domain.begin(), source_domain.end());
  all.insert(all.end(), target_domain.begin(), target_domain.end());
  EnsureHeads(ds, all);

  // Fine-tuning perturbs a converged model: drop to a small constant LR and
  // keep the best parameters seen on a held-out slice of the labeled set.
  std::vector<int> train = labeled;
  rng_.Shuffle(&train);
  size_t n_valid = std::max<size_t>(1, train.size() / 10);
  std::vector<int> valid(train.end() - static_cast<long>(n_valid), train.end());
  train.resize(train.size() - n_valid);

  auto saved_scheduler = std::move(scheduler_);
  scheduler_ = std::make_unique<ConstantLr>(config_.lr * 0.4);
  TrainStats stats =
      RunTraining(ds, train, valid, epochs, config_.alpha_cmd, source_domain, target_domain);
  scheduler_ = std::move(saved_scheduler);
  return stats;
}

TrainStats CdmppPredictor::RunTraining(const Dataset& ds, const std::vector<int>& train,
                                       const std::vector<int>& valid, int epochs, double alpha,
                                       const std::vector<int>& source_domain,
                                       const std::vector<int>& target_domain) {
  TrainStats stats;
  auto buckets = GroupByLeafCount(ds, train);
  // Batches hold sample indices, which are positions into this view.
  const AstBatchView view = DatasetView(ds);

  // Pre-transform all labels once.
  std::vector<float> transformed(ds.samples.size(), 0.0f);
  for (int idx : train) {
    double y_ms = ds.samples[static_cast<size_t>(idx)].latency_seconds * kSecondsToMs;
    transformed[static_cast<size_t>(idx)] = static_cast<float>(label_transform_->Transform(y_ms));
  }

  // Domain batches for the CMD regularizer.
  std::map<int, std::vector<int>> src_buckets;
  std::map<int, std::vector<int>> tgt_buckets;
  if (alpha > 0.0) {
    src_buckets = GroupByLeafCount(ds, source_domain);
    tgt_buckets = GroupByLeafCount(ds, target_domain);
  }

  double best_valid_mape = 1e30;
  std::vector<Matrix> best_params;
  size_t samples_seen = 0;
  auto start = std::chrono::steady_clock::now();

  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::vector<Batch> batches = MakeBatches(buckets, config_.batch_size, &rng_);
    std::vector<Batch> src_batches;
    std::vector<Batch> tgt_batches;
    if (alpha > 0.0) {
      src_batches = MakeBatches(src_buckets, config_.batch_size, &rng_);
      tgt_batches = MakeBatches(tgt_buckets, config_.batch_size, &rng_);
    }
    double epoch_loss = 0.0;
    size_t step_in_epoch = 0;
    for (const Batch& batch : batches) {
      // One side per step, alternating.
      CmdPass pass;
      const CmdPass* cmd = nullptr;
      if (alpha > 0.0 && !src_batches.empty() && !tgt_batches.empty()) {
        const bool update_source = (step_in_epoch % 2) == 0;
        const Batch& src = src_batches[step_in_epoch % src_batches.size()];
        const Batch& tgt = tgt_batches[step_in_epoch % tgt_batches.size()];
        pass.grad_side = update_source ? &src : &tgt;
        pass.const_side = update_source ? &tgt : &src;
        pass.alpha = alpha;
        cmd = &pass;
      }
      epoch_loss += TrainStep(view, batch, transformed.data(), cmd);
      ++step_in_epoch;
      samples_seen += batch.sample_indices.size();
    }
    stats.epoch_train_loss.push_back(epoch_loss / std::max<size_t>(1, batches.size()));

    if (!valid.empty()) {
      EvalStats v = Evaluate(ds, valid);
      stats.epoch_valid_mape.push_back(v.mape);
      if (v.mape < best_valid_mape) {
        best_valid_mape = v.mape;
        best_params = SnapshotParams();
      }
    }
  }
  auto end = std::chrono::steady_clock::now();
  stats.train_seconds = std::chrono::duration<double>(end - start).count();
  stats.throughput_samples_per_sec =
      stats.train_seconds > 0.0 ? static_cast<double>(samples_seen) / stats.train_seconds : 0.0;

  if (!best_params.empty()) {
    RestoreParams(best_params);
  }
  if (!valid.empty()) {
    stats.final_valid = Evaluate(ds, valid);
  }
  return stats;
}

std::vector<double> CdmppPredictor::Predict(const Dataset& ds, const std::vector<int>& indices) {
  std::vector<double> out(indices.size(), 0.0);
  ShardedInference(ds, indices, [&](int position, const BatchForward& fwd, int row) {
    out[static_cast<size_t>(position)] = ToSeconds(fwd.preds->At(row, 0));
  });
  return out;
}

double CdmppPredictor::PredictAst(const CompactAst& ast, int device_id) {
  CDMPP_CHECK(fitted_);
  CDMPP_CHECK(ast.num_leaves > 0);
  EnsureHead(ast.num_leaves);
  AstBatchView view;
  view.asts = {&ast};
  view.device_ids = {device_id};
  return PredictBatched(view)[0];
}

std::vector<float> CdmppPredictor::HeadColumnScales(int leaf_count, const Linear& head) const {
  // A head's input is the packed encoder output [B, leaf_count * d_model]:
  // leaf_count tiled copies of the last layer's norm2 channel profile, which
  // is statically estimable from its gamma/beta — so the largest GEMM in the
  // model (k up to leaf_count * d_model) gets per-channel activation scales.
  const LayerNorm& last_norm = encoder_->layer(encoder_->num_layers() - 1).norm2();
  const std::vector<float> est = LayerNormActAbsMax(last_norm);
  std::vector<float> tiled(static_cast<size_t>(leaf_count) * est.size());
  for (int t = 0; t < leaf_count; ++t) {
    std::copy(est.begin(), est.end(), tiled.begin() + static_cast<size_t>(t) * est.size());
  }
  return BalancedColumnScales(tiled, head.weight());
}

void CdmppPredictor::PrepareQuantizedInference() {
  CDMPP_CHECK_MSG(fitted_, "quantize an unfitted predictor: run Pretrain first");
  q_leaf_heads_.clear();
  for (const auto& [leaves, head] : leaf_heads_) {
    q_leaf_heads_[leaves] =
        std::make_unique<QuantizedLinear>(*head, HeadColumnScales(leaves, *head));
  }
  q_device_mlp_ = std::make_unique<QuantizedMlp>(*device_mlp_);
  // The decoder's final [*, 1] projection stays fp32: its absolute noise
  // hits the transformed label directly (see QuantizedMlp in quantize.h).
  q_decoder_ = std::make_unique<QuantizedMlp>(*decoder_, /*num_fp32_tail_layers=*/1);
  // Encoder weight GEMMs (the bulk of serving FLOPs).
  q_encoder_ = std::make_unique<QuantizedTransformerEncoder>(*encoder_);
}

bool CdmppPredictor::HasQuantizedHead(int leaf_count) const {
  return q_leaf_heads_.find(leaf_count) != q_leaf_heads_.end();
}

void CdmppPredictor::EnsureQuantizedHead(int leaf_count) {
  EnsureHead(leaf_count);
  if (HasQuantizedHead(leaf_count)) {
    return;
  }
  const Linear& head = *leaf_heads_.at(leaf_count);
  q_leaf_heads_[leaf_count] =
      std::make_unique<QuantizedLinear>(head, HeadColumnScales(leaf_count, head));
}

bool CdmppPredictor::HasHead(int leaf_count) const {
  return leaf_heads_.find(leaf_count) != leaf_heads_.end();
}

void CdmppPredictor::EnsureHead(int leaf_count) {
  CDMPP_CHECK(leaf_count > 0);
  if (HasHead(leaf_count)) {
    return;
  }
  leaf_heads_[leaf_count] =
      std::make_unique<Linear>(leaf_count * config_.d_model, config_.z_dim, &rng_);
  RebuildOptimizer();
}

std::vector<double> CdmppPredictor::PredictBatched(const AstBatchView& view,
                                                   uint64_t* num_forward_passes) const {
  // Arena leased from the process-wide pool: repeated callers (PredictAst,
  // tests, the replayer) share warm arenas with the serving workers and the
  // training shards instead of each thread growing a private one. The
  // forward runs on the calling thread and takes no other lease.
  WorkspacePool::Lease ws = WorkspacePool::Global().Acquire();
  std::vector<double> out(view.size(), 0.0);
  PredictBatched(view, ws.get(), out.data(), num_forward_passes);
  return out;
}

void CdmppPredictor::PredictBatched(const AstBatchView& view, Workspace* ws, double* out,
                                    uint64_t* num_forward_passes) const {
  PredictBatchedImpl(view, ws, out, num_forward_passes, /*int8=*/false);
}

void CdmppPredictor::PredictBatchedQuantized(const AstBatchView& view, Workspace* ws,
                                             double* out, uint64_t* num_forward_passes) const {
  CDMPP_CHECK_MSG(quantized_ready(),
                  "int8 serving before PrepareQuantizedInference()");
  PredictBatchedImpl(view, ws, out, num_forward_passes, /*int8=*/true);
}

std::vector<double> CdmppPredictor::PredictBatchedQuantized(const AstBatchView& view,
                                                            uint64_t* num_forward_passes) const {
  WorkspacePool::Lease ws = WorkspacePool::Global().Acquire();
  std::vector<double> out(view.size(), 0.0);
  PredictBatchedQuantized(view, ws.get(), out.data(), num_forward_passes);
  return out;
}

CdmppPredictor::BatchForward CdmppPredictor::ForwardBatch(const AstBatchView& view,
                                                          const Batch& batch, bool int8,
                                                          Workspace* ws,
                                                          ForwardCache* cache) const {
  CDMPP_CHECK_MSG(!(int8 && cache != nullptr), "the int8 tier has no backward");
  const bool train = cache != nullptr;
  const int b = static_cast<int>(batch.sample_indices.size());
  const int l = batch.seq_len;
  if (train) {
    cache->batch = b;
    cache->seq_len = l;
  }
  auto head_it = leaf_heads_.find(l);
  CDMPP_CHECK_MSG(head_it != leaf_heads_.end(),
                  "no head for this leaf count; call EnsureHead first");
  const QuantizedLinear* q_head = nullptr;
  if (int8) {
    auto q_it = q_leaf_heads_.find(l);
    CDMPP_CHECK_MSG(q_it != q_leaf_heads_.end(),
                    "no quantized head for this leaf count; call EnsureQuantizedHead first");
    q_head = q_it->second.get();
  }

  // Per-stage trace spans (no-ops unless the serving layer sampled this
  // batch and bound a Trace to the calling thread). Pure timing on the
  // calling thread: the data plane below is untouched, so the bitwise
  // thread-count/batch-size invariance contracts hold with tracing on.
  Matrix* x = ws->NewMatrix(b * l, kFeatDim);
  {
    obs::ScopedSpan span(obs::Stage::kFeaturize);
    BuildFeatureMatrixInto(view, batch, scaler_.fitted() ? &scaler_ : nullptr, config_.use_pe,
                           config_.pe_theta, x);
  }
  Matrix* h = nullptr;
  {
    obs::ScopedSpan span(obs::Stage::kEncoder);
    // The input projection stays fp32 in every tier: its quantization noise
    // would feed the whole stack for ~1% of model FLOPs.
    Matrix* proj = input_proj_->Forward(*x, ws, train ? &cache->input_proj : nullptr);
    h = int8 ? q_encoder_->Forward(*proj, l, ws)
             : encoder_->Forward(*proj, l, ws, train ? &cache->encoder : nullptr);
  }
  Matrix* zx = nullptr;
  {
    obs::ScopedSpan span(obs::Stage::kHeads);
    Matrix* packed = ws->NewMatrix(b, l * config_.d_model);
    PackRowsInto(*h, b, l, packed);
    zx = int8 ? q_head->Forward(*packed, ws)
              : head_it->second->Forward(*packed, ws, train ? &cache->head : nullptr);
  }

  Matrix* zv = nullptr;
  {
    obs::ScopedSpan span(obs::Stage::kDeviceMlp);
    Matrix* dev = ws->NewMatrix(b, kDeviceFeatDim);
    BuildDeviceFeatureMatrixInto(view, batch, dev);
    zv = int8 ? q_device_mlp_->Forward(*dev, ws)
              : device_mlp_->Forward(*dev, ws, train ? &cache->device_mlp : nullptr);
  }

  BatchForward out;
  {
    obs::ScopedSpan span(obs::Stage::kDecoder);
    out.z = ws->NewMatrix(b, config_.z_dim + config_.device_embed_dim);
    for (int i = 0; i < b; ++i) {
      float* row = out.z->Row(i);
      for (int j = 0; j < config_.z_dim; ++j) {
        row[j] = zx->At(i, j);
      }
      for (int j = 0; j < config_.device_embed_dim; ++j) {
        row[config_.z_dim + j] = zv->At(i, j);
      }
    }
    out.preds = int8 ? q_decoder_->Forward(*out.z, ws)
                     : decoder_->Forward(*out.z, ws, train ? &cache->decoder : nullptr);
  }
  return out;
}

double CdmppPredictor::ToSeconds(float pred) const {
  return label_transform_->Inverse(ClampTransformed(static_cast<double>(pred))) / kSecondsToMs;
}

void CdmppPredictor::PredictBatchedImpl(const AstBatchView& view, Workspace* ws, double* out,
                                        uint64_t* num_forward_passes, bool int8) const {
  CDMPP_CHECK(fitted_);
  CDMPP_CHECK(view.asts.size() == view.device_ids.size());
  if (view.size() == 0) {
    // Nothing to predict; `out` may legitimately be null here (an empty
    // vector's data()).
    if (num_forward_passes != nullptr) {
      *num_forward_passes = 0;
    }
    return;
  }
  CDMPP_CHECK(ws != nullptr && out != nullptr);
  // The plan recycles its buffers per thread, so steady-state bucketing of a
  // request stream costs no allocations (unlike the map-of-vectors grouping
  // the training path uses).
  static thread_local BatchPlan plan;
  plan.Build(view, config_.batch_size);
  if (num_forward_passes != nullptr) {
    *num_forward_passes = static_cast<uint64_t>(plan.num_batches());
  }
  for (int bi = 0; bi < plan.num_batches(); ++bi) {
    const Batch& batch = plan.batch(bi);
    ws->Reset();
    const Matrix& preds = *ForwardBatch(view, batch, int8, ws, /*cache=*/nullptr).preds;
    {
      // "Dequant" in the serving sense: map the transformed model output back
      // to seconds. (The int8 GEMM dequant epilogues are fused in-kernel and
      // accounted to their host stage.)
      obs::ScopedSpan span(obs::Stage::kDequant);
      for (size_t i = 0; i < batch.sample_indices.size(); ++i) {
        out[static_cast<size_t>(batch.sample_indices[i])] =
            ToSeconds(preds.At(static_cast<int>(i), 0));
      }
    }
  }
}

double CdmppPredictor::PredictProgram(const Dataset& ds, int program_index, int device_id) {
  // Locate (or synthesize) a sample row for this (program, device) pair.
  for (size_t i = 0; i < ds.samples.size(); ++i) {
    if (ds.samples[i].program_index == program_index && ds.samples[i].device_id == device_id) {
      return Predict(ds, {static_cast<int>(i)})[0];
    }
  }
  CDMPP_CHECK_MSG(false, "no sample for (program, device); build the dataset with this device");
  __builtin_unreachable();
}

EvalStats CdmppPredictor::Evaluate(const Dataset& ds, const std::vector<int>& indices) {
  EvalStats stats;
  if (indices.empty()) {
    return stats;
  }
  std::vector<double> pred = Predict(ds, indices);
  std::vector<double> truth;
  truth.reserve(indices.size());
  for (int idx : indices) {
    truth.push_back(ds.samples[static_cast<size_t>(idx)].latency_seconds);
  }
  std::vector<double> pred_ms(pred.size());
  std::vector<double> truth_ms(truth.size());
  for (size_t i = 0; i < pred.size(); ++i) {
    pred_ms[i] = pred[i] * kSecondsToMs;
    truth_ms[i] = truth[i] * kSecondsToMs;
  }
  stats.mape = Mape(pred_ms, truth_ms);
  stats.rmse_ms = Rmse(pred_ms, truth_ms);
  stats.acc20 = AccuracyWithin(pred_ms, truth_ms, 0.2);
  stats.acc10 = AccuracyWithin(pred_ms, truth_ms, 0.1);
  stats.acc5 = AccuracyWithin(pred_ms, truth_ms, 0.05);
  stats.count = static_cast<int>(indices.size());
  return stats;
}

Matrix CdmppPredictor::EncodeLatent(const Dataset& ds, const std::vector<int>& indices) {
  Matrix out(static_cast<int>(indices.size()), config_.z_dim + config_.device_embed_dim);
  ShardedInference(ds, indices, [&](int position, const BatchForward& fwd, int row) {
    std::copy(fwd.z->Row(row), fwd.z->Row(row) + fwd.z->cols(), out.Row(position));
  });
  return out;
}

}  // namespace cdmpp
