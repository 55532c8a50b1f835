// Basic trainable layers with manual forward/backward passes.
//
// Every layer has exactly ONE forward: a const
//
//   Matrix* Forward(x, [seq_len,] Workspace* ws, Cache* cache = nullptr)
//
// whose output and intermediates live in the caller's Workspace arena (valid
// until its Reset()), so warm passes perform zero heap allocations. Each
// thread needs its own Workspace. A null `cache` is inference: the pass
// writes no state, and any number of threads may run it concurrently on a
// shared layer as long as no thread mutates parameters at the same time —
// this is the serving hot path (src/serve/). A non-null `cache` is training:
// the pass records what the matching Backward needs — pointers into the
// arena, so Backward must run before the arena is Reset(). A cache never
// changes the computed values: with and without one, Forward is bitwise
// identical.
//
//   Matrix* Backward(cache, dy, Workspace* ws, const Shard& shard = {})
//
// *accumulates* parameter gradients and returns dLoss/dInput, which lives in
// `ws` like every temporary of the pass. Optimizer::Step clears the
// gradients after its update; ZeroGrad clears them without one.
//
// Sharded backward: training runs a batch as concurrent consecutive row
// shards. Rows of outputs and input gradients depend on their own sample
// only, and each parameter gradient is one chain over the batch rows in row
// order, so a layer adds shard i's rows after shard i-1's (GradTurn) and any
// split gives the whole-batch bits (README "Threading model").
#ifndef SRC_NN_LAYERS_H_
#define SRC_NN_LAYERS_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "src/nn/kernels.h"
#include "src/nn/matrix.h"
#include "src/nn/workspace.h"

namespace cdmpp {

// One trainable tensor with its gradient accumulator.
struct Param {
  Matrix value;
  Matrix grad;

  void InitXavier(int rows, int cols, Rng* rng) {
    value = Matrix(rows, cols);
    value.XavierInit(rng);
    grad = Matrix(rows, cols);
  }
  void InitZero(int rows, int cols) {
    value = Matrix(rows, cols);
    grad = Matrix(rows, cols);
  }
};

// Where one Backward call's rows sit in a batch split into `count`
// consecutive shards; {0, 1} is the whole batch.
struct Shard {
  int index = 0;
  int count = 1;
};

// Orders one layer's gradient accumulation across the shards of a pass:
// Wait returns once every earlier shard has Passed, and the last shard's
// Pass rewinds the turn for the next pass. Shards are started in index order
// (ThreadPool::ParallelFor claims chunks in order), so the shard a waiter
// depends on is always running and the order cannot deadlock. A wait
// sleeps, so it costs no CPU time. A shard must pass every turn it takes part in, so a
// sharded backward may not throw part-way: the predictor runs its shard
// bodies noexcept, which turns an exception into termination, not a hang.
class GradTurn {
 public:
  GradTurn() = default;
  // A copied layer (the int8 snapshots copy fp32 layers) starts a fresh turn.
  GradTurn(const GradTurn&) {}
  GradTurn& operator=(const GradTurn&) { return *this; }

  void Wait(const Shard& shard);
  void Pass(const Shard& shard);

 private:
  int turn_ = 0;  // guarded by mu_
  std::mutex mu_;
  std::condition_variable cv_;
};

// Base class for all layers/models: exposes parameters to the optimizer.
class Module {
 public:
  virtual ~Module() = default;
  virtual void CollectParams(std::vector<Param*>* out) = 0;

  void ZeroGrad() {
    std::vector<Param*> params;
    CollectParams(&params);
    for (Param* p : params) {
      p->grad.Zero();
    }
  }
  size_t NumParams() {
    std::vector<Param*> params;
    CollectParams(&params);
    size_t n = 0;
    for (Param* p : params) {
      n += p->value.size();
    }
    return n;
  }
};

// y = act(x W + b), x: [N, in], W: [in, out].
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng* rng);

  // What Backward needs: the input, and the output, which masks a fused ReLU
  // (y > 0 exactly where x W + b > 0). Both point at the pass's tensors: x
  // must stay unchanged until Backward, and y too when act is kRelu.
  struct Cache {
    const Matrix* x = nullptr;
    const Matrix* y = nullptr;
    kernels::Activation act = kernels::Activation::kNone;
  };

  // y = act(x W + b) in one fused kernel pass (the epilogue runs while the
  // accumulator tile is still in registers). kRelu is the layer's ReLU.
  Matrix* Forward(const Matrix& x, Workspace* ws, Cache* cache = nullptr,
                  kernels::Activation act = kernels::Activation::kNone) const;
  Matrix* Backward(const Cache& cache, const Matrix& dy, Workspace* ws, const Shard& shard = {});
  // Backward with dx written into *dx, or, with `accumulate`, added onto it:
  // each element becomes the prior value plus dx rounded once, the bits of
  // computing dx and adding it. A null dx skips the input gradient (the
  // network's first layer, whose input gradient nothing reads).
  void BackwardInto(const Cache& cache, const Matrix& dy, Workspace* ws, const Shard& shard,
                    Matrix* dx, bool accumulate);
  void CollectParams(std::vector<Param*>* out) override;

  int in_dim() const { return w_.value.rows(); }
  int out_dim() const { return w_.value.cols(); }

  // Read-only parameter views: the int8 calibration path (src/nn/quantize.h)
  // snapshots these into packed quantized form.
  const Matrix& weight() const { return w_.value; }
  const Matrix& bias() const { return b_.value; }

 private:
  Param w_;
  Param b_;
  GradTurn turn_;
  Matrix bias_sum_;  // [1, out]: the bias gradient's row sum, carried across shards
};

// Per-row layer normalization with learnable gamma/beta.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  struct Cache {
    Matrix* norm = nullptr;     // normalized activations (pre gamma/beta)
    Matrix* inv_std = nullptr;  // [N, 1]
  };

  Matrix* Forward(const Matrix& x, Workspace* ws, Cache* cache = nullptr) const;
  Matrix* Backward(const Cache& cache, const Matrix& dy, Workspace* ws, const Shard& shard = {});
  void CollectParams(std::vector<Param*>* out) override;

  // Read-only parameter views: the int8 calibration path derives data-free
  // per-channel activation magnitude estimates for post-LayerNorm inputs from
  // gamma/beta (src/nn/quantize.h).
  const Matrix& gamma() const { return gamma_.value; }
  const Matrix& beta() const { return beta_.value; }

 private:
  static constexpr float kEps = 1e-5f;
  Param gamma_;
  Param beta_;
  GradTurn turn_;
};

// Multi-layer perceptron: Linear -> ReLU repeated, final Linear (no ReLU).
class Mlp : public Module {
 public:
  // dims = {in, h1, ..., out}. Requires at least {in, out}.
  Mlp(const std::vector<int>& dims, Rng* rng);

  struct Cache {
    std::vector<Linear::Cache> layers;  // resized in place: no warm allocation
  };

  // Each hidden Linear+ReLU pair runs as one fused kernel call.
  Matrix* Forward(const Matrix& x, Workspace* ws, Cache* cache = nullptr) const;
  Matrix* Backward(const Cache& cache, const Matrix& dy, Workspace* ws, const Shard& shard = {});
  void CollectParams(std::vector<Param*>* out) override;

  // Read-only layer views for the int8 calibration path.
  size_t num_linear_layers() const { return linears_.size(); }
  const Linear& linear_layer(size_t i) const { return *linears_[i]; }

 private:
  std::vector<std::unique_ptr<Linear>> linears_;
};

// One LSTM step (used by the Tiramisu-style recursive baseline).
// State tensors are [N, hidden]. The forward intermediates live in an
// external cache so the same cell (shared weights) can be applied at many
// tree positions before backward runs in reverse order.
class LstmCell : public Module {
 public:
  LstmCell(int input_dim, int hidden_dim, Rng* rng);

  struct State {
    Matrix h;
    Matrix c;
  };

  // Forward intermediates for one step.
  struct Cache {
    Matrix x, h_prev, c_prev;
    Matrix gates;  // post-activation i, f, g, o stacked along columns
    Matrix c, tanh_c;
  };

  // Gradients w.r.t. the step inputs.
  struct InputGrads {
    Matrix dx;
    Matrix dh_prev;
    Matrix dc_prev;
  };

  // Runs one step, filling `cache` for the matching Backward.
  State Forward(const Matrix& x, const State& prev, Cache* cache);
  // dh/dc are gradients w.r.t. the step outputs (dc may be empty).
  InputGrads Backward(const Cache& cache, const Matrix& dh, const Matrix& dc);
  void CollectParams(std::vector<Param*>* out) override;

  int hidden_dim() const { return hidden_dim_; }
  State ZeroState(int batch) const;

 private:
  int input_dim_;
  int hidden_dim_;
  Param w_x_;  // [input, 4*hidden]: i, f, g, o gates stacked
  Param w_h_;  // [hidden, 4*hidden]
  Param b_;    // [1, 4*hidden]
};

}  // namespace cdmpp

#endif  // SRC_NN_LAYERS_H_
