#include "src/baselines/tiramisu.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/ast/compact_ast.h"
#include "src/support/check.h"
#include "src/tir/schedule.h"

namespace cdmpp {

namespace {

constexpr int kLoopFeatDim = 5;  // log extent + 4-way annotation one-hot

void FillLoopFeatures(const Loop& loop, float* out) {
  out[0] = static_cast<float>(std::log1p(static_cast<double>(loop.extent)));
  out[1] = loop.annotation == LoopAnnotation::kNone ? 1.0f : 0.0f;
  out[2] = loop.annotation == LoopAnnotation::kVectorize ? 1.0f : 0.0f;
  out[3] = loop.annotation == LoopAnnotation::kUnroll ? 1.0f : 0.0f;
  out[4] = loop.annotation == LoopAnnotation::kParallel ? 1.0f : 0.0f;
}

}  // namespace

struct TiramisuModel::NodeCache {
  // Leaf caches.
  Matrix leaf_x;    // [1, kFeatDim]
  Matrix leaf_pre;  // [1, H], pre-activation
  // Loop caches.
  std::vector<std::unique_ptr<NodeCache>> children;
  std::vector<LstmCell::Cache> lstm_caches;  // one per child step
  Matrix loop_in;                            // [1, H + kLoopFeatDim]
  Matrix loop_pre;                           // [1, H]
  // Pre-order leaf contexts of the program (set on the root cache only).
  std::vector<LeafContext> leaves;
  size_t next_leaf = 0;
};

TiramisuModel::TiramisuModel(const TiramisuConfig& config) : config_(config), rng_(config.seed) {
  const int h = config_.hidden_dim;
  w_leaf_.InitXavier(kFeatDim, h, &rng_);
  b_leaf_.InitZero(1, h);
  lstm_ = std::make_unique<LstmCell>(h, h, &rng_);
  w_loop_.InitXavier(h + kLoopFeatDim, h, &rng_);
  b_loop_.InitZero(1, h);
  w_head_.InitXavier(h, 1, &rng_);
  b_head_.InitZero(1, 1);

  std::vector<Param*> params;
  CollectParams(&params);
  optimizer_ = std::make_unique<Adam>(std::move(params), config_.lr);
}

TiramisuModel::~TiramisuModel() = default;

void TiramisuModel::CollectParams(std::vector<Param*>* out) {
  out->push_back(&w_leaf_);
  out->push_back(&b_leaf_);
  lstm_->CollectParams(out);
  out->push_back(&w_loop_);
  out->push_back(&b_loop_);
  out->push_back(&w_head_);
  out->push_back(&b_head_);
}

Matrix TiramisuModel::LeafForward(const ComputationVector& cv, NodeCache* cache) {
  cache->leaf_x = Matrix(1, kFeatDim);
  for (int j = 0; j < kFeatDim; ++j) {
    cache->leaf_x.At(0, j) = cv[static_cast<size_t>(j)];
  }
  cache->leaf_pre = MatMul(cache->leaf_x, w_leaf_.value);
  AddRowBroadcast(&cache->leaf_pre, b_leaf_.value);
  Matrix h = cache->leaf_pre;
  for (int j = 0; j < h.cols(); ++j) {
    h.At(0, j) = std::max(0.0f, h.At(0, j));
  }
  return h;
}

void TiramisuModel::LeafBackward(NodeCache* cache, const Matrix& dh) {
  Matrix dpre = dh;
  for (int j = 0; j < dpre.cols(); ++j) {
    if (cache->leaf_pre.At(0, j) <= 0.0f) {
      dpre.At(0, j) = 0.0f;
    }
  }
  w_leaf_.grad.AddInPlace(MatMulTransA(cache->leaf_x, dpre));
  b_leaf_.grad.AddInPlace(dpre);
}

Matrix TiramisuModel::LoopProject(const Matrix& h, const Loop& loop, NodeCache* cache) {
  const int hd = config_.hidden_dim;
  cache->loop_in = Matrix(1, hd + kLoopFeatDim);
  for (int j = 0; j < hd; ++j) {
    cache->loop_in.At(0, j) = h.At(0, j);
  }
  FillLoopFeatures(loop, cache->loop_in.Row(0) + hd);
  cache->loop_pre = MatMul(cache->loop_in, w_loop_.value);
  AddRowBroadcast(&cache->loop_pre, b_loop_.value);
  Matrix out = cache->loop_pre;
  for (int j = 0; j < out.cols(); ++j) {
    out.At(0, j) = std::max(0.0f, out.At(0, j));
  }
  return out;
}

Matrix TiramisuModel::LoopProjectBackward(NodeCache* cache, const Matrix& dh) {
  Matrix dpre = dh;
  for (int j = 0; j < dpre.cols(); ++j) {
    if (cache->loop_pre.At(0, j) <= 0.0f) {
      dpre.At(0, j) = 0.0f;
    }
  }
  w_loop_.grad.AddInPlace(MatMulTransA(cache->loop_in, dpre));
  b_loop_.grad.AddInPlace(dpre);
  Matrix din = MatMulTransB(dpre, w_loop_.value);
  Matrix dh_in(1, config_.hidden_dim);
  for (int j = 0; j < config_.hidden_dim; ++j) {
    dh_in.At(0, j) = din.At(0, j);
  }
  return dh_in;
}

Matrix TiramisuModel::EmbedNode(const StmtNode& node, NodeCache* cache, NodeCache* root) {
  if (node.is_leaf) {
    CDMPP_CHECK(root->next_leaf < root->leaves.size());
    ComputationVector cv = BuildComputationVector(root->leaves[root->next_leaf++]);
    return LeafForward(cv, cache);
  }
  LstmCell::State state = lstm_->ZeroState(1);
  for (const auto& child : node.children) {
    auto child_cache = std::make_unique<NodeCache>();
    Matrix child_h = EmbedNode(*child, child_cache.get(), root);
    cache->lstm_caches.emplace_back();
    state = lstm_->Forward(child_h, state, &cache->lstm_caches.back());
    cache->children.push_back(std::move(child_cache));
  }
  return LoopProject(state.h, node.loop, cache);
}

void TiramisuModel::BackpropNode(const StmtNode& node, NodeCache* cache, const Matrix& dh) {
  if (node.is_leaf) {
    LeafBackward(cache, dh);
    return;
  }
  // dh w.r.t. the loop projection output -> gradient of the final LSTM state.
  Matrix dstate_h = LoopProjectBackward(cache, dh);
  Matrix dstate_c;  // empty = zero at the last step
  for (size_t t = cache->children.size(); t-- > 0;) {
    LstmCell::InputGrads grads = lstm_->Backward(cache->lstm_caches[t], dstate_h, dstate_c);
    BackpropNode(*node.children[t], cache->children[t].get(), grads.dx);
    dstate_h = std::move(grads.dh_prev);
    dstate_c = std::move(grads.dc_prev);
  }
}

float TiramisuModel::ForwardProgram(const TensorProgram& prog) {
  last_root_cache_ = std::make_unique<NodeCache>();
  last_root_cache_->leaves = CollectLeaves(*prog.root);
  last_root_h_ = EmbedNode(*prog.root, last_root_cache_.get(), last_root_cache_.get());
  last_prog_ = &prog;
  Matrix out = MatMul(last_root_h_, w_head_.value);
  AddRowBroadcast(&out, b_head_.value);
  return out.At(0, 0);
}

void TiramisuModel::BackpropProgram(float dout) {
  CDMPP_CHECK(last_root_cache_ != nullptr && last_prog_ != nullptr);
  Matrix dout_m(1, 1);
  dout_m.At(0, 0) = dout;
  w_head_.grad.AddInPlace(MatMulTransA(last_root_h_, dout_m));
  b_head_.grad.AddInPlace(dout_m);
  Matrix dh = MatMulTransB(dout_m, w_head_.value);
  BackpropNode(*last_prog_->root, last_root_cache_.get(), dh);
}

double TiramisuModel::Fit(const Dataset& ds, const std::vector<int>& train) {
  CDMPP_CHECK(!train.empty());
  transform_ = MakeLabelTransform(NormKind::kBoxCox);
  std::vector<double> labels_ms = GatherLabels(ds, train);
  for (double& y : labels_ms) {
    y *= 1e3;
  }
  transform_->Fit(labels_ms);

  std::vector<Param*> params;
  CollectParams(&params);

  size_t seen = 0;
  auto start = std::chrono::steady_clock::now();
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    std::vector<int> order = train;
    rng_.Shuffle(&order);
    if (static_cast<int>(order.size()) > config_.max_train_programs_per_epoch) {
      order.resize(static_cast<size_t>(config_.max_train_programs_per_epoch));
    }
    for (int idx : order) {
      const Sample& s = ds.samples[static_cast<size_t>(idx)];
      const ProgramRecord& rec = ds.programs[static_cast<size_t>(s.program_index)];
      TensorProgram prog =
          GenerateProgram(ds.tasks[static_cast<size_t>(rec.task_id)].task, rec.schedule);
      float pred = ForwardProgram(prog);
      float target =
          static_cast<float>(transform_->Transform(s.latency_seconds * 1e3));
      // MAPE objective (Tiramisu's default).
      float denom = std::max(1e-3f, std::abs(target));
      float dout = (pred >= target ? 1.0f : -1.0f) / denom;
      BackpropProgram(dout);
      // Per-sample updates are noisy; clip the global gradient norm.
      double norm_sq = 0.0;
      for (Param* p : params) {
        norm_sq += p->grad.SquaredNorm();
      }
      if (norm_sq > 1.0) {
        float scale = static_cast<float>(1.0 / std::sqrt(norm_sq));
        for (Param* p : params) {
          p->grad.Scale(scale);
        }
      }
      optimizer_->Step();
      ++seen;
    }
  }
  auto end = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(end - start).count();
  return secs > 0.0 ? static_cast<double>(seen) / secs : 0.0;
}

double TiramisuModel::PredictProgram(const TensorProgram& prog) {
  CDMPP_CHECK(transform_ != nullptr);
  // Clamp to the plausible transformed band to keep the exponential-tailed
  // inverse finite on out-of-distribution programs.
  double t = std::clamp(static_cast<double>(ForwardProgram(prog)), kLabelShift - 6.0,
                        kLabelShift + 6.0);
  return transform_->Inverse(t) / 1e3;
}

std::vector<double> TiramisuModel::Predict(const Dataset& ds, const std::vector<int>& indices) {
  CDMPP_CHECK(transform_ != nullptr);
  std::vector<double> out;
  out.reserve(indices.size());
  for (int idx : indices) {
    const Sample& s = ds.samples[static_cast<size_t>(idx)];
    const ProgramRecord& rec = ds.programs[static_cast<size_t>(s.program_index)];
    TensorProgram prog =
        GenerateProgram(ds.tasks[static_cast<size_t>(rec.task_id)].task, rec.schedule);
    out.push_back(PredictProgram(prog));
  }
  return out;
}

}  // namespace cdmpp
