#include "src/nn/layers.h"

#include <cmath>

#include "src/obs/trace.h"
#include "src/support/parallel_for.h"

namespace cdmpp {

// ---------------- Linear ----------------

Linear::Linear(int in_dim, int out_dim, Rng* rng) {
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

Matrix Linear::Backward(const Cache& cache, const Matrix& dy) {
  const Matrix& x = *cache.x;
  CDMPP_CHECK(dy.rows() == x.rows() && dy.cols() == w_.value.cols());
  const Matrix* d = &dy;
  Matrix masked;
  if (cache.act == kernels::Activation::kRelu) {
    // The fused ReLU's backward: y > 0 exactly where its input was > 0.
    masked = dy;
    const float* y = cache.y->data();
    for (size_t i = 0; i < masked.size(); ++i) {
      if (y[i] <= 0.0f) {
        masked.data()[i] = 0.0f;
      }
    }
    d = &masked;
  }
  // w_.grad += xᵀ·d as a single beta=1 accumulate — no gradient temporary.
  kernels::GemmTN(w_.grad.rows(), w_.grad.cols(), d->rows(), x.data(), x.cols(), d->data(),
                  d->cols(), /*beta=*/1.0f, w_.grad.data(), w_.grad.cols());
  b_.grad.AddInPlace(ColumnSum(*d));
  return MatMulTransB(*d, w_.value);
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

namespace {

// Rows are independent, so batch rows split across cores; tiny inputs stay
// serial (ParallelFor also runs inline when the range fits one chunk). With
// a cache, the normalized rows and 1/std are recorded for Backward.
void LayerNormRowsInto(const Matrix& x, const float* gamma, const float* beta, float eps,
                       Matrix* y, LayerNorm::Cache* cache) {
  const int n = x.rows();
  const int d = x.cols();
  auto normalize_rows = [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = x.Row(static_cast<int>(i));
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
      const float inv_std = 1.0f / std::sqrt(var + eps);
      if (cache != nullptr) {
        cache->inv_std->At(static_cast<int>(i), 0) = inv_std;
        float* nrow = cache->norm->Row(static_cast<int>(i));
        for (int j = 0; j < d; ++j) {
          nrow[j] = (row[j] - mean) * inv_std;
        }
      }
      float* yrow = y->Row(static_cast<int>(i));
      for (int j = 0; j < d; ++j) {
        yrow[j] = (row[j] - mean) * inv_std * gamma[j] + beta[j];
      }
    }
  };
  // ~10 flops per element over the mean/var/normalize passes, against the
  // shared fork policy.
  if (WorthForking(ThreadPool::Global(), n, 10.0 * static_cast<double>(n) * d)) {
    ParallelFor(0, n, ParallelGrain(n), normalize_rows);
  } else {
    normalize_rows(0, n);
  }
}

}  // namespace

Matrix* LayerNorm::Forward(const Matrix& x, Workspace* ws, Cache* cache) const {
  // Nests under the encoder span when a sampled trace is bound; no-op (one
  // thread-local load) otherwise.
  obs::ScopedSpan span(obs::Stage::kLayerNorm);
  Matrix* y = ws->NewMatrix(x.rows(), x.cols());
  if (cache != nullptr) {
    cache->norm = ws->NewMatrix(x.rows(), x.cols());
    cache->inv_std = ws->NewMatrix(x.rows(), 1);
  }
  LayerNormRowsInto(x, gamma_.value.Row(0), beta_.value.Row(0), kEps, y, cache);
  return y;
}

Matrix LayerNorm::Backward(const Cache& cache, const Matrix& dy) {
  const int n = dy.rows();
  const int d = dy.cols();
  CDMPP_CHECK(n == cache.norm->rows() && d == cache.norm->cols());
  Matrix dx(n, d);
  for (int i = 0; i < n; ++i) {
    const float* dyrow = dy.Row(i);
    const float* nrow = cache.norm->Row(i);
    float inv_std = cache.inv_std->At(i, 0);
    // dnorm = dy * gamma; dx = inv_std * (dnorm - mean(dnorm) - norm * mean(dnorm*norm)).
    float mean_dn = 0.0f;
    float mean_dn_n = 0.0f;
    for (int j = 0; j < d; ++j) {
      float dn = dyrow[j] * gamma_.value.At(0, j);
      mean_dn += dn;
      mean_dn_n += dn * nrow[j];
      gamma_.grad.At(0, j) += dyrow[j] * nrow[j];
      beta_.grad.At(0, j) += dyrow[j];
    }
    mean_dn /= static_cast<float>(d);
    mean_dn_n /= static_cast<float>(d);
    float* dxrow = dx.Row(i);
    for (int j = 0; j < d; ++j) {
      float dn = dyrow[j] * gamma_.value.At(0, j);
      dxrow[j] = inv_std * (dn - mean_dn - nrow[j] * mean_dn_n);
    }
  }
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

Matrix Mlp::Backward(const Cache& cache, const Matrix& dy) {
  Matrix d = dy;
  for (size_t i = linears_.size(); i-- > 0;) {
    d = linears_[i]->Backward(cache.layers[i], d);
  }
  return d;
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
