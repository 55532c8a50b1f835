// Optimizers (Adam, SGD) and learning-rate schedulers (constant, CyclicLR —
// the paper's auto-tuned configuration uses Adam + CyclicLR, Table 6).
#ifndef SRC_NN_OPTIMIZER_H_
#define SRC_NN_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/layers.h"

namespace cdmpp {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Param*> params);
  virtual ~Optimizer() = default;

  // Applies one update using the accumulated gradients and clears them for
  // the next step's accumulation.
  void Step() {
    BeginStep();
    Update(0, num_values(), 1.0f);
  }

  // The same step in pieces, for splitting it across threads: BeginStep
  // once, then Update over any partition of [0, num_values()) — every
  // parameter value laid end to end in params order. A value's update reads
  // and writes that value's own state only, so pieces may run concurrently
  // and the partition never changes a bit. Each gradient is first scaled by
  // grad_scale (gradient clipping; 1 leaves it as is), then cleared.
  virtual void BeginStep() {}
  void Update(int64_t begin, int64_t end, float grad_scale);
  int64_t num_values() const { return offsets_.back(); }

  void set_learning_rate(double lr) { lr_ = lr; }
  double learning_rate() const { return lr_; }

 protected:
  // Updates values [j0, j1) of params_[i] from their (scaled) gradients.
  virtual void UpdateSlice(size_t i, int64_t j0, int64_t j1) = 0;

  std::vector<Param*> params_;
  std::vector<int64_t> offsets_;  // offsets_[i]: first value of params_[i]; back() = total
  double lr_ = 1e-3;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Param*> params, double lr, double momentum = 0.9);

 protected:
  void UpdateSlice(size_t i, int64_t j0, int64_t j1) override;

 private:
  double momentum_;
  std::vector<Matrix> velocity_;
};

// Adam with decoupled (AdamW) weight decay. The update runs in double
// precision on float state; its loop is written over __restrict pointers
// and optimizer.cc builds with -fno-math-errno, so the compiler vectorizes
// it with the same operations in the same order as the scalar loop.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Param*> params, double lr, double weight_decay = 0.0, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);
  void BeginStep() override;

 protected:
  void UpdateSlice(size_t i, int64_t j0, int64_t j1) override;

 private:
  double weight_decay_;
  double beta1_, beta2_, eps_;
  int64_t t_ = 0;
  double bias1_ = 1.0, bias2_ = 1.0;  // bias corrections of step t_
  std::vector<Matrix> m_, v_;
};

// Learning-rate schedule evaluated per optimizer step.
class LrScheduler {
 public:
  virtual ~LrScheduler() = default;
  virtual double LrAt(int64_t step) const = 0;
};

class ConstantLr : public LrScheduler {
 public:
  explicit ConstantLr(double lr) : lr_(lr) {}
  double LrAt(int64_t) const override { return lr_; }

 private:
  double lr_;
};

// Triangular cyclic learning rate between base_lr and max_lr with the given
// half-cycle length in steps.
class CyclicLr : public LrScheduler {
 public:
  CyclicLr(double base_lr, double max_lr, int64_t step_size);
  double LrAt(int64_t step) const override;

 private:
  double base_lr_, max_lr_;
  int64_t step_size_;
};

}  // namespace cdmpp

#endif  // SRC_NN_OPTIMIZER_H_
