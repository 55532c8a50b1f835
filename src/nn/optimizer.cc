#include "src/nn/optimizer.h"

#include <algorithm>
#include <cmath>

namespace cdmpp {

Optimizer::Optimizer(std::vector<Param*> params) : params_(std::move(params)) {
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  for (Param* p : params_) {
    offsets_.push_back(offsets_.back() + static_cast<int64_t>(p->value.size()));
  }
}

void Optimizer::Update(int64_t begin, int64_t end, float grad_scale) {
  // From the parameter holding `begin` (the last offset <= begin) on.
  size_t i = static_cast<size_t>(std::upper_bound(offsets_.begin(), offsets_.end(), begin) -
                                 offsets_.begin()) -
             1;
  for (; i < params_.size() && offsets_[i] < end; ++i) {
    const int64_t j0 = std::max(begin, offsets_[i]) - offsets_[i];
    const int64_t j1 = std::min(end, offsets_[i + 1]) - offsets_[i];
    float* g = params_[i]->grad.data();
    if (grad_scale != 1.0f) {
      for (int64_t j = j0; j < j1; ++j) {
        g[j] *= grad_scale;
      }
    }
    UpdateSlice(i, j0, j1);
    std::fill(g + j0, g + j1, 0.0f);
  }
}

Sgd::Sgd(std::vector<Param*> params, double lr, double momentum)
    : Optimizer(std::move(params)), momentum_(momentum) {
  lr_ = lr;
  velocity_.reserve(params_.size());
  for (Param* p : params_) {
    velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Sgd::UpdateSlice(size_t i, int64_t j0, int64_t j1) {
  Param* p = params_[i];
  float* vel = velocity_[i].data();
  for (int64_t j = j0; j < j1; ++j) {
    float g = p->grad.data()[j];
    vel[j] = static_cast<float>(momentum_) * vel[j] + g;
    p->value.data()[j] -= static_cast<float>(lr_) * vel[j];
  }
}

Adam::Adam(std::vector<Param*> params, double lr, double weight_decay, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params)),
      weight_decay_(weight_decay),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  lr_ = lr;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::BeginStep() {
  ++t_;
  bias1_ = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  bias2_ = 1.0 - std::pow(beta2_, static_cast<double>(t_));
}

void Adam::UpdateSlice(size_t i, int64_t j0, int64_t j1) {
  // The scalar loop's operations in its order, over __restrict pointers so
  // the compiler vectorizes it: double state math, each float rounded where
  // the scalar loop stored it. Decoupled weight decay (AdamW style).
  const float* __restrict g = params_[i]->grad.data() + j0;
  float* __restrict m = m_[i].data() + j0;
  float* __restrict v = v_[i].data() + j0;
  float* __restrict w = params_[i]->value.data() + j0;
  const double one_minus_beta1 = 1.0 - beta1_;
  const double one_minus_beta2 = 1.0 - beta2_;
  for (int64_t j = 0; j < j1 - j0; ++j) {
    const float gj = g[j];
    const float mj = static_cast<float>(beta1_ * m[j] + one_minus_beta1 * gj);
    const float vj = static_cast<float>(beta2_ * v[j] + one_minus_beta2 * gj * gj);
    m[j] = mj;
    v[j] = vj;
    const double update = mj / bias1_ / (std::sqrt(vj / bias2_) + eps_) + weight_decay_ * w[j];
    w[j] -= static_cast<float>(lr_ * update);
  }
}

CyclicLr::CyclicLr(double base_lr, double max_lr, int64_t step_size)
    : base_lr_(base_lr), max_lr_(max_lr), step_size_(step_size) {
  CDMPP_CHECK(step_size > 0);
  CDMPP_CHECK(max_lr >= base_lr);
}

double CyclicLr::LrAt(int64_t step) const {
  int64_t cycle_pos = step % (2 * step_size_);
  double frac = static_cast<double>(cycle_pos) / static_cast<double>(step_size_);
  if (frac > 1.0) {
    frac = 2.0 - frac;  // descending half
  }
  return base_lr_ + (max_lr_ - base_lr_) * frac;
}

}  // namespace cdmpp
