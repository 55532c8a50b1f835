#include "src/nn/layers.h"

#include <cmath>

#include "src/obs/trace.h"

namespace cdmpp {

// ---------------- GradTurn ----------------

void GradTurn::Wait(const Shard& shard) {
  if (shard.count == 1) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return turn_ == shard.index; });
}

void GradTurn::Pass(const Shard& shard) {
  if (shard.count == 1) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    turn_ = shard.index + 1 == shard.count ? 0 : shard.index + 1;
  }
  cv_.notify_all();
}

// ---------------- Linear ----------------

Linear::Linear(int in_dim, int out_dim, Rng* rng) : bias_sum_(1, out_dim) {
  w_.InitXavier(in_dim, out_dim, rng);
  b_.InitZero(1, out_dim);
}

Matrix* Linear::Forward(const Matrix& x, Workspace* ws, Cache* cache,
                       kernels::Activation act) const {
  CDMPP_CHECK(x.cols() == w_.value.rows());
  Matrix* y = ws->NewMatrix(x.rows(), w_.value.cols());
  kernels::GemmBiasAct(x.rows(), y->cols(), x.cols(), x.data(), x.cols(), w_.value.data(),
                       w_.value.cols(), b_.value.data(), act, y->data(), y->cols());
  if (cache != nullptr) {
    *cache = Cache{&x, y, act};
  }
  return y;
}

Matrix* Linear::Backward(const Cache& cache, const Matrix& dy, Workspace* ws,
                         const Shard& shard) {
  Matrix* dx = ws->NewMatrix(dy.rows(), w_.value.rows());
  BackwardInto(cache, dy, ws, shard, dx, /*accumulate=*/false);
  return dx;
}

void Linear::BackwardInto(const Cache& cache, const Matrix& dy, Workspace* ws,
                          const Shard& shard, Matrix* dx, bool accumulate) {
  const Matrix& x = *cache.x;
  const int n = dy.rows();
  const int out = w_.value.cols();
  CDMPP_CHECK(n == x.rows() && dy.cols() == out);
  const size_t scratch = ws->Mark();
  const Matrix* d = &dy;
  if (cache.act == kernels::Activation::kRelu) {
    // The fused ReLU's backward: y > 0 exactly where its input was > 0.
    Matrix* masked = ws->NewMatrix(n, out);
    const float* y = cache.y->data();
    for (size_t i = 0; i < masked->size(); ++i) {
      masked->data()[i] = y[i] <= 0.0f ? 0.0f : dy.data()[i];
    }
    d = masked;
  }
  if (dx != nullptr) {
    // dx (+)= d·Wᵀ: this shard's rows only, so no turn needed. The NT kernel
    // sums the dot from zero and then adds beta * dx.
    CDMPP_CHECK(dx->rows() == n && dx->cols() == w_.value.rows());
    kernels::GemmNT(n, dx->cols(), out, d->data(), out, w_.value.data(), out,
                    accumulate ? 1.0f : 0.0f, dx->data(), dx->cols());
  }
  turn_.Wait(shard);
  // w_.grad += xᵀ·d as a single beta=1 accumulate — no gradient temporary.
  kernels::GemmTN(w_.grad.rows(), out, n, x.data(), x.cols(), d->data(), out, /*beta=*/1.0f,
                  w_.grad.data(), out);
  // b_.grad += (sum of the batch's rows from zero), the partial sum carried
  // across shards.
  float* sum = bias_sum_.data();
  if (shard.index == 0) {
    bias_sum_.Zero();
  }
  for (int i = 0; i < n; ++i) {
    const float* row = d->Row(i);
    for (int j = 0; j < out; ++j) {
      sum[j] += row[j];
    }
  }
  if (shard.index + 1 == shard.count) {
    float* grad = b_.grad.data();
    for (int j = 0; j < out; ++j) {
      grad[j] += sum[j];
    }
  }
  turn_.Pass(shard);
  ws->Rewind(scratch);
}

void Linear::CollectParams(std::vector<Param*>* out) {
  out->push_back(&w_);
  out->push_back(&b_);
}

// ---------------- LayerNorm ----------------

LayerNorm::LayerNorm(int dim) {
  gamma_.InitZero(1, dim);
  for (int j = 0; j < dim; ++j) {
    gamma_.value.At(0, j) = 1.0f;
  }
  beta_.InitZero(1, dim);
}

Matrix* LayerNorm::Forward(const Matrix& x, Workspace* ws, Cache* cache) const {
  // Nests under the encoder span when a sampled trace is bound; no-op (one
  // thread-local load) otherwise.
  obs::ScopedSpan span(obs::Stage::kLayerNorm);
  const int n = x.rows();
  const int d = x.cols();
  Matrix* y = ws->NewMatrix(n, d);
  if (cache != nullptr) {
    cache->norm = ws->NewMatrix(n, d);
    cache->inv_std = ws->NewMatrix(n, 1);
  }
  const float* gamma = gamma_.value.Row(0);
  const float* beta = beta_.value.Row(0);
  for (int i = 0; i < n; ++i) {
    const float* row = x.Row(i);
    float mean = 0.0f;
    for (int j = 0; j < d; ++j) {
      mean += row[j];
    }
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (int j = 0; j < d; ++j) {
      var += (row[j] - mean) * (row[j] - mean);
    }
    var /= static_cast<float>(d);
    const float inv_std = 1.0f / std::sqrt(var + kEps);
    if (cache != nullptr) {
      cache->inv_std->At(i, 0) = inv_std;
      float* nrow = cache->norm->Row(i);
      for (int j = 0; j < d; ++j) {
        nrow[j] = (row[j] - mean) * inv_std;
      }
    }
    float* yrow = y->Row(i);
    for (int j = 0; j < d; ++j) {
      yrow[j] = (row[j] - mean) * inv_std * gamma[j] + beta[j];
    }
  }
  return y;
}

Matrix* LayerNorm::Backward(const Cache& cache, const Matrix& dy, Workspace* ws,
                            const Shard& shard) {
  const int n = dy.rows();
  const int d = dy.cols();
  CDMPP_CHECK(n == cache.norm->rows() && d == cache.norm->cols());
  const float* gamma = gamma_.value.Row(0);
  Matrix* dx = ws->NewMatrix(n, d);
  for (int i = 0; i < n; ++i) {
    const float* dyrow = dy.Row(i);
    const float* nrow = cache.norm->Row(i);
    const float inv_std = cache.inv_std->At(i, 0);
    // dnorm = dy * gamma; dx = inv_std * (dnorm - mean(dnorm) - norm * mean(dnorm*norm)).
    float mean_dn = 0.0f;
    float mean_dn_n = 0.0f;
    for (int j = 0; j < d; ++j) {
      const float dn = dyrow[j] * gamma[j];
      mean_dn += dn;
      mean_dn_n += dn * nrow[j];
    }
    mean_dn /= static_cast<float>(d);
    mean_dn_n /= static_cast<float>(d);
    float* dxrow = dx->Row(i);
    for (int j = 0; j < d; ++j) {
      const float dn = dyrow[j] * gamma[j];
      dxrow[j] = inv_std * (dn - mean_dn - nrow[j] * mean_dn_n);
    }
  }
  // gamma/beta gradients: one chain over the batch rows, in row order.
  turn_.Wait(shard);
  float* dgamma = gamma_.grad.Row(0);
  float* dbeta = beta_.grad.Row(0);
  for (int i = 0; i < n; ++i) {
    const float* dyrow = dy.Row(i);
    const float* nrow = cache.norm->Row(i);
    for (int j = 0; j < d; ++j) {
      dgamma[j] += dyrow[j] * nrow[j];
      dbeta[j] += dyrow[j];
    }
  }
  turn_.Pass(shard);
  return dx;
}

void LayerNorm::CollectParams(std::vector<Param*>* out) {
  out->push_back(&gamma_);
  out->push_back(&beta_);
}

// ---------------- Mlp ----------------

Mlp::Mlp(const std::vector<int>& dims, Rng* rng) {
  CDMPP_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    linears_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
  }
}

Matrix* Mlp::Forward(const Matrix& x, Workspace* ws, Cache* cache) const {
  if (cache != nullptr) {
    cache->layers.resize(linears_.size());
  }
  const Matrix* h = &x;
  Matrix* out = nullptr;
  for (size_t i = 0; i < linears_.size(); ++i) {
    const bool hidden = i + 1 < linears_.size();
    out = linears_[i]->Forward(*h, ws, cache != nullptr ? &cache->layers[i] : nullptr,
                               hidden ? kernels::Activation::kRelu : kernels::Activation::kNone);
    h = out;
  }
  return out;
}

Matrix* Mlp::Backward(const Cache& cache, const Matrix& dy, Workspace* ws, const Shard& shard) {
  const Matrix* d = &dy;
  Matrix* dx = nullptr;
  for (size_t i = linears_.size(); i-- > 0;) {
    dx = linears_[i]->Backward(cache.layers[i], *d, ws, shard);
    d = dx;
  }
  return dx;
}

void Mlp::CollectParams(std::vector<Param*>* out) {
  for (auto& l : linears_) {
    l->CollectParams(out);
  }
}

// ---------------- LstmCell ----------------

namespace {

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

LstmCell::LstmCell(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  w_x_.InitXavier(input_dim, 4 * hidden_dim, rng);
  w_h_.InitXavier(hidden_dim, 4 * hidden_dim, rng);
  b_.InitZero(1, 4 * hidden_dim);
}

LstmCell::State LstmCell::ZeroState(int batch) const {
  State s;
  s.h = Matrix(batch, hidden_dim_);
  s.c = Matrix(batch, hidden_dim_);
  return s;
}

LstmCell::State LstmCell::Forward(const Matrix& x, const State& prev, Cache* cache) {
  CDMPP_CHECK(x.cols() == input_dim_);
  CDMPP_CHECK(prev.h.cols() == hidden_dim_ && prev.c.cols() == hidden_dim_);
  CDMPP_CHECK(cache != nullptr);
  const int n = x.rows();
  cache->x = x;
  cache->h_prev = prev.h;
  cache->c_prev = prev.c;

  Matrix pre = MatMul(x, w_x_.value);
  // pre += h_prev · w_h as a beta=1 accumulate — no temporary.
  kernels::GemmNN(n, 4 * hidden_dim_, hidden_dim_, prev.h.data(), prev.h.cols(),
                  w_h_.value.data(), w_h_.value.cols(), /*beta=*/1.0f, pre.data(), pre.cols());
  AddRowBroadcast(&pre, b_.value);

  cache->gates = Matrix(n, 4 * hidden_dim_);
  State out;
  out.h = Matrix(n, hidden_dim_);
  out.c = Matrix(n, hidden_dim_);
  cache->tanh_c = Matrix(n, hidden_dim_);
  for (int r = 0; r < n; ++r) {
    for (int j = 0; j < hidden_dim_; ++j) {
      float i_g = Sigmoid(pre.At(r, j));
      float f_g = Sigmoid(pre.At(r, hidden_dim_ + j));
      float g_g = std::tanh(pre.At(r, 2 * hidden_dim_ + j));
      float o_g = Sigmoid(pre.At(r, 3 * hidden_dim_ + j));
      cache->gates.At(r, j) = i_g;
      cache->gates.At(r, hidden_dim_ + j) = f_g;
      cache->gates.At(r, 2 * hidden_dim_ + j) = g_g;
      cache->gates.At(r, 3 * hidden_dim_ + j) = o_g;
      float c = f_g * prev.c.At(r, j) + i_g * g_g;
      out.c.At(r, j) = c;
      float tc = std::tanh(c);
      cache->tanh_c.At(r, j) = tc;
      out.h.At(r, j) = o_g * tc;
    }
  }
  cache->c = out.c;
  return out;
}

LstmCell::InputGrads LstmCell::Backward(const Cache& cache, const Matrix& dh,
                                        const Matrix& dc_in) {
  const int n = dh.rows();
  Matrix dpre(n, 4 * hidden_dim_);
  InputGrads grads;
  grads.dc_prev = Matrix(n, hidden_dim_);
  for (int r = 0; r < n; ++r) {
    for (int j = 0; j < hidden_dim_; ++j) {
      float i_g = cache.gates.At(r, j);
      float f_g = cache.gates.At(r, hidden_dim_ + j);
      float g_g = cache.gates.At(r, 2 * hidden_dim_ + j);
      float o_g = cache.gates.At(r, 3 * hidden_dim_ + j);
      float tc = cache.tanh_c.At(r, j);
      float dhv = dh.At(r, j);
      float dc = dc_in.empty() ? 0.0f : dc_in.At(r, j);
      dc += dhv * o_g * (1.0f - tc * tc);
      float do_g = dhv * tc;
      float di = dc * g_g;
      float df = dc * cache.c_prev.At(r, j);
      float dg = dc * i_g;
      grads.dc_prev.At(r, j) = dc * f_g;
      dpre.At(r, j) = di * i_g * (1.0f - i_g);
      dpre.At(r, hidden_dim_ + j) = df * f_g * (1.0f - f_g);
      dpre.At(r, 2 * hidden_dim_ + j) = dg * (1.0f - g_g * g_g);
      dpre.At(r, 3 * hidden_dim_ + j) = do_g * o_g * (1.0f - o_g);
    }
  }
  kernels::GemmTN(w_x_.grad.rows(), w_x_.grad.cols(), n, cache.x.data(), cache.x.cols(),
                  dpre.data(), dpre.cols(), /*beta=*/1.0f, w_x_.grad.data(), w_x_.grad.cols());
  kernels::GemmTN(w_h_.grad.rows(), w_h_.grad.cols(), n, cache.h_prev.data(),
                  cache.h_prev.cols(), dpre.data(), dpre.cols(), /*beta=*/1.0f,
                  w_h_.grad.data(), w_h_.grad.cols());
  b_.grad.AddInPlace(ColumnSum(dpre));
  grads.dx = MatMulTransB(dpre, w_x_.value);
  grads.dh_prev = MatMulTransB(dpre, w_h_.value);
  return grads;
}

void LstmCell::CollectParams(std::vector<Param*>* out) {
  out->push_back(&w_x_);
  out->push_back(&w_h_);
  out->push_back(&b_);
}

}  // namespace cdmpp
