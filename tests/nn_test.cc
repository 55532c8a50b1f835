#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/attention.h"
#include "src/nn/loss.h"
#include "src/nn/matrix.h"
#include "src/nn/optimizer.h"
#include "src/nn/transformer.h"
#include "src/support/cpu_features.h"
#include "src/support/fnv_hash.h"
#include "src/support/parallel_for.h"
#include "tests/grad_check.h"

namespace cdmpp {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, scale));
  }
  return m;
}

// Scalar loss = sum(output * weights) for gradient checking: d(loss)/d(out)
// is just the weight matrix.
double WeightedSum(const Matrix& out, const Matrix& weights) {
  double s = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    s += static_cast<double>(out.data()[i]) * weights.data()[i];
  }
  return s;
}

// Inference forward (no cache) into a private arena, copied out.
template <typename Layer, typename... SeqLen>
Matrix Infer(const Layer& layer, const Matrix& x, SeqLen... seq_len) {
  Workspace ws;
  return *layer.Forward(x, seq_len..., &ws);
}

// One training step: the forward with a cache, then Backward(cache, dy).
struct Step {
  Matrix y;
  Matrix dx;
};

template <typename Layer, typename... SeqLen>
Step ForwardBackward(Layer* layer, const Matrix& x, const Matrix& dy, SeqLen... seq_len) {
  Workspace ws;
  typename Layer::Cache cache;
  Step step;
  step.y = *layer->Forward(x, seq_len..., &ws, &cache);
  step.dx = *layer->Backward(cache, dy, &ws);
  return step;
}

TEST(MatrixTest, MatMulMatchesManual) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, TransposedVariantsAgree) {
  Rng rng(41);
  Matrix a = RandomMatrix(4, 5, &rng);
  Matrix b = RandomMatrix(5, 3, &rng);
  Matrix ref = MatMul(a, b);

  // a^T stored transposed: at [5,4]; MatMulTransA(at, b) == a x b.
  Matrix at(5, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 5; ++j) {
      at.At(j, i) = a.At(i, j);
    }
  }
  Matrix r1 = MatMulTransA(at, b);
  // b^T stored transposed: bt [3,5]; MatMulTransB(a, bt) == a x b.
  Matrix bt(3, 5);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) {
      bt.At(j, i) = b.At(i, j);
    }
  }
  Matrix r2 = MatMulTransB(a, bt);
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(r1.data()[i], ref.data()[i], 1e-5);
    EXPECT_NEAR(r2.data()[i], ref.data()[i], 1e-5);
  }
}

TEST(MatrixTest, SoftmaxRowsSumToOne) {
  Rng rng(42);
  Matrix m = RandomMatrix(6, 9, &rng, 3.0);
  SoftmaxRows(m.data(), m.rows(), m.cols());
  for (int i = 0; i < m.rows(); ++i) {
    float sum = 0.0f;
    for (int j = 0; j < m.cols(); ++j) {
      EXPECT_GE(m.At(i, j), 0.0f);
      sum += m.At(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(LinearTest, GradientCheck) {
  Rng rng(43);
  Linear layer(5, 4, &rng);
  Matrix x = RandomMatrix(3, 5, &rng);
  Matrix w = RandomMatrix(3, 4, &rng);

  auto loss = [&]() { return WeightedSum(Infer(layer, x), w); };
  layer.ZeroGrad();
  ForwardBackward(&layer, x, w);
  std::vector<Param*> params;
  layer.CollectParams(&params);
  CheckParamGradients(params, loss);
}

TEST(LinearTest, InputGradientCheck) {
  Rng rng(44);
  Linear layer(4, 3, &rng);
  Matrix x = RandomMatrix(2, 4, &rng);
  Matrix w = RandomMatrix(2, 3, &rng);
  layer.ZeroGrad();
  Matrix dx = ForwardBackward(&layer, x, w).dx;
  const double eps = 1e-3;
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      float orig = x.At(i, j);
      x.At(i, j) = orig + static_cast<float>(eps);
      double up = WeightedSum(Infer(layer, x), w);
      x.At(i, j) = orig - static_cast<float>(eps);
      double down = WeightedSum(Infer(layer, x), w);
      x.At(i, j) = orig;
      EXPECT_NEAR(dx.At(i, j), (up - down) / (2 * eps), 1e-2);
    }
  }
}

TEST(LinearTest, FusedReluBackwardMasksOnTheOutput) {
  // The ReLU fused into the epilogue backprops only where y > 0.
  Rng rng(40);
  Linear layer(6, 5, &rng);
  Matrix x = RandomMatrix(7, 6, &rng);
  Matrix dy = RandomMatrix(7, 5, &rng);
  Workspace ws;
  Linear::Cache relu_cache;
  const Matrix& y = *layer.Forward(x, &ws, &relu_cache, kernels::Activation::kRelu);
  layer.ZeroGrad();
  Matrix dx_relu = *layer.Backward(relu_cache, dy, &ws);
  Matrix masked = dy;
  for (size_t i = 0; i < masked.size(); ++i) {
    if (y.data()[i] <= 0.0f) {
      masked.data()[i] = 0.0f;
    }
  }
  layer.ZeroGrad();
  Matrix dx_plain = ForwardBackward(&layer, x, masked).dx;
  for (size_t i = 0; i < dx_plain.size(); ++i) {
    EXPECT_EQ(dx_relu.data()[i], dx_plain.data()[i]);  // bitwise
  }
}

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(45);
  LayerNorm ln(8);
  Matrix x = RandomMatrix(4, 8, &rng, 5.0);
  Matrix y = Infer(ln, x);
  for (int i = 0; i < y.rows(); ++i) {
    double mean = 0.0;
    for (int j = 0; j < 8; ++j) {
      mean += y.At(i, j);
    }
    mean /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
  }
}

TEST(LayerNormTest, GradientCheck) {
  Rng rng(46);
  LayerNorm ln(6);
  Matrix x = RandomMatrix(3, 6, &rng);
  Matrix w = RandomMatrix(3, 6, &rng);
  auto loss = [&]() { return WeightedSum(Infer(ln, x), w); };
  ln.ZeroGrad();
  ForwardBackward(&ln, x, w);
  std::vector<Param*> params;
  ln.CollectParams(&params);
  CheckParamGradients(params, loss);
}

TEST(MlpTest, GradientCheck) {
  Rng rng(47);
  Mlp mlp({4, 6, 1}, &rng);
  Matrix x = RandomMatrix(5, 4, &rng);
  Matrix w = RandomMatrix(5, 1, &rng);
  auto loss = [&]() { return WeightedSum(Infer(mlp, x), w); };
  mlp.ZeroGrad();
  ForwardBackward(&mlp, x, w);
  std::vector<Param*> params;
  mlp.CollectParams(&params);
  CheckParamGradients(params, loss);
}

TEST(AttentionTest, OutputShapeMatchesInput) {
  Rng rng(48);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = RandomMatrix(6, 8, &rng);  // 2 samples x seq_len 3
  Matrix y = Infer(attn, x, 3);
  EXPECT_EQ(y.rows(), 6);
  EXPECT_EQ(y.cols(), 8);
}

TEST(AttentionTest, SamplesAreIndependent) {
  // Changing sample 1's input must not change sample 0's output.
  Rng rng(49);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = RandomMatrix(6, 8, &rng);
  Matrix y1 = Infer(attn, x, 3);
  x.At(4, 2) += 1.0f;  // perturb a row in the second sample
  Matrix y2 = Infer(attn, x, 3);
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(y1.At(t, j), y2.At(t, j));
    }
  }
}

TEST(AttentionTest, GradientCheck) {
  // d_head 2 and 3: 1/sqrt(3) is not a power of two, so a softmax scale
  // applied in the wrong place (the cached Q instead of dscores) would show.
  struct Shape {
    int d_model, num_heads, seq_len;
  };
  for (const Shape& shape : {Shape{4, 2, 2}, Shape{6, 2, 3}}) {
    SCOPED_TRACE(shape.d_model);
    Rng rng(50);
    MultiHeadSelfAttention attn(shape.d_model, shape.num_heads, &rng);
    Matrix x = RandomMatrix(2 * shape.seq_len, shape.d_model, &rng);  // 2 samples
    Matrix w = RandomMatrix(2 * shape.seq_len, shape.d_model, &rng);
    auto loss = [&]() { return WeightedSum(Infer(attn, x, shape.seq_len), w); };
    attn.ZeroGrad();
    ForwardBackward(&attn, x, w, shape.seq_len);
    std::vector<Param*> params;
    attn.CollectParams(&params);
    CheckParamGradients(params, loss, 1e-3, 3e-2);
  }
}

TEST(TransformerTest, GradientCheck) {
  Rng rng(51);
  TransformerEncoderLayer layer(4, 2, 8, &rng);
  Matrix x = RandomMatrix(4, 4, &rng);
  Matrix w = RandomMatrix(4, 4, &rng);
  auto loss = [&]() { return WeightedSum(Infer(layer, x, 2), w); };
  layer.ZeroGrad();
  ForwardBackward(&layer, x, w, 2);
  std::vector<Param*> params;
  layer.CollectParams(&params);
  CheckParamGradients(params, loss, 1e-3, 5e-2, 6);
}

TEST(TransformerTest, StackedEncoderInputGradient) {
  Rng rng(52);
  TransformerEncoder enc(4, 2, 8, 2, &rng);
  Matrix x = RandomMatrix(4, 4, &rng);
  Matrix w = RandomMatrix(4, 4, &rng);
  enc.ZeroGrad();
  Matrix dx = ForwardBackward(&enc, x, w, 2).dx;
  const double eps = 1e-2;
  int checked = 0;
  for (int i = 0; i < x.rows() && checked < 6; ++i) {
    for (int j = 0; j < x.cols() && checked < 6; ++j, ++checked) {
      float orig = x.At(i, j);
      x.At(i, j) = orig + static_cast<float>(eps);
      double up = WeightedSum(Infer(enc, x, 2), w);
      x.At(i, j) = orig - static_cast<float>(eps);
      double down = WeightedSum(Infer(enc, x, 2), w);
      x.At(i, j) = orig;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(dx.At(i, j), numeric, 0.05 * std::max(1.0, std::abs(numeric)));
    }
  }
}

TEST(LstmTest, GradientCheck) {
  Rng rng(53);
  LstmCell cell(3, 4, &rng);
  Matrix x = RandomMatrix(2, 3, &rng);
  LstmCell::State prev = cell.ZeroState(2);
  prev.h = RandomMatrix(2, 4, &rng, 0.5);
  prev.c = RandomMatrix(2, 4, &rng, 0.5);
  Matrix w = RandomMatrix(2, 4, &rng);

  LstmCell::Cache cache;
  auto loss = [&]() {
    LstmCell::Cache tmp;
    return WeightedSum(cell.Forward(x, prev, &tmp).h, w);
  };
  cell.ZeroGrad();
  cell.Forward(x, prev, &cache);
  cell.Backward(cache, w, Matrix());
  std::vector<Param*> params;
  cell.CollectParams(&params);
  CheckParamGradients(params, loss, 1e-3, 3e-2);
}

// ---- Bitwise pins ----------------------------------------------------------
//
// Each layer's Forward with a cache must return exactly what it returns
// without one, and a Forward+Backward step must reproduce, bit for bit, the
// output, input gradient and parameter gradients the layers computed before
// training and inference shared one forward. The hashes were recorded from
// that earlier implementation, once per kernel ISA (the scalar and AVX2
// bodies round differently; thread count never matters).

template <typename Layer, typename... SeqLen>
void ExpectCacheIsInvisible(const Layer& layer, const Matrix& x, SeqLen... seq_len) {
  Workspace ws_infer;
  Workspace ws_train;
  typename Layer::Cache cache;
  const Matrix& y_infer = *layer.Forward(x, seq_len..., &ws_infer);
  const Matrix& y_train = *layer.Forward(x, seq_len..., &ws_train, &cache);
  ASSERT_EQ(y_infer.rows(), y_train.rows());
  ASSERT_EQ(y_infer.cols(), y_train.cols());
  for (size_t i = 0; i < y_infer.size(); ++i) {
    ASSERT_EQ(y_infer.data()[i], y_train.data()[i]) << "element " << i;  // bitwise
  }
}

TEST(ForwardCacheTest, CacheNeverChangesTheOutput) {
  Rng rng(60);
  Linear linear(40, 24, &rng);
  LayerNorm norm(24);
  Mlp mlp({40, 32, 24, 8}, &rng);
  MultiHeadSelfAttention attn16(64, 4, &rng);  // d_head 16
  MultiHeadSelfAttention attn12(48, 4, &rng);  // d_head 12
  TransformerEncoderLayer layer(48, 4, 96, &rng);
  TransformerEncoder encoder(64, 4, 128, 2, &rng);
  const int batch = 96;
  for (int seq_len : {3, 7, 12}) {
    SCOPED_TRACE(seq_len);
    const int rows = batch * seq_len;
    ExpectCacheIsInvisible(linear, RandomMatrix(rows, 40, &rng));
    ExpectCacheIsInvisible(norm, RandomMatrix(rows, 24, &rng, 3.0));
    ExpectCacheIsInvisible(mlp, RandomMatrix(rows, 40, &rng));
    ExpectCacheIsInvisible(attn16, RandomMatrix(rows, 64, &rng), seq_len);
    ExpectCacheIsInvisible(attn12, RandomMatrix(rows, 48, &rng), seq_len);
    ExpectCacheIsInvisible(layer, RandomMatrix(rows, 48, &rng), seq_len);
    ExpectCacheIsInvisible(encoder, RandomMatrix(rows, 64, &rng), seq_len);
  }
}

uint64_t MixMatrix(uint64_t h, const Matrix& m) {
  h = FnvMix(h, static_cast<uint64_t>(m.rows()));
  h = FnvMix(h, static_cast<uint64_t>(m.cols()));
  for (size_t i = 0; i < m.size(); ++i) {
    h = FnvMixFloat(h, m.data()[i]);
  }
  return h;
}

// Hash of one step: output, input gradient, then every parameter gradient.
template <typename Layer, typename... SeqLen>
uint64_t StepHash(Layer* layer, const Matrix& x, const Matrix& dy, SeqLen... seq_len) {
  layer->ZeroGrad();
  Step step = ForwardBackward(layer, x, dy, seq_len...);
  uint64_t h = MixMatrix(MixMatrix(kFnvOffset, step.y), step.dx);
  std::vector<Param*> params;
  layer->CollectParams(&params);
  for (Param* p : params) {
    h = MixMatrix(h, p->grad);
  }
  return h;
}

uint64_t PinnedFor(uint64_t avx2, uint64_t scalar) {
  return ActiveKernelIsa() == KernelIsa::kAvx2 ? avx2 : scalar;
}

TEST(LayerGoldenTest, Linear) {
  Rng rng(101);
  Linear layer(40, 24, &rng);
  Matrix x = RandomMatrix(30, 40, &rng);
  Matrix dy = RandomMatrix(30, 24, &rng);
  EXPECT_EQ(StepHash(&layer, x, dy), PinnedFor(0x92a50d5f44d5445cull, 0xcade0a3dd4b2ff56ull));
}

TEST(LayerGoldenTest, LayerNorm) {
  Rng rng(102);
  LayerNorm layer(24);
  Matrix x = RandomMatrix(30, 24, &rng, 3.0);
  Matrix dy = RandomMatrix(30, 24, &rng);
  EXPECT_EQ(StepHash(&layer, x, dy), PinnedFor(0xf653437a2d64a81bull, 0xf653437a2d64a81bull));
}

TEST(LayerGoldenTest, MlpWithFusedRelu) {
  Rng rng(103);
  Mlp layer({40, 32, 24, 8}, &rng);
  Matrix x = RandomMatrix(30, 40, &rng);
  Matrix dy = RandomMatrix(30, 8, &rng);
  EXPECT_EQ(StepHash(&layer, x, dy), PinnedFor(0xb6651ab2eb39282bull, 0x4a38b032cd0b0d32ull));
}

TEST(LayerGoldenTest, AttentionDHead16) {
  Rng rng(104);
  MultiHeadSelfAttention layer(64, 4, &rng);
  Matrix x = RandomMatrix(6 * 7, 64, &rng);
  Matrix dy = RandomMatrix(6 * 7, 64, &rng);
  EXPECT_EQ(StepHash(&layer, x, dy, 7), PinnedFor(0x6dcfa6e556cf9554ull, 0xaf3c0dcea70e9019ull));
}

TEST(LayerGoldenTest, AttentionDHead12InexactScale) {
  // 1/sqrt(12) is not exact in binary: scaling the cached Q instead of
  // dscores would change these bits.
  Rng rng(105);
  MultiHeadSelfAttention layer(48, 4, &rng);
  Matrix x = RandomMatrix(6 * 5, 48, &rng);
  Matrix dy = RandomMatrix(6 * 5, 48, &rng);
  EXPECT_EQ(StepHash(&layer, x, dy, 5), PinnedFor(0xeafba5f85ec51490ull, 0x9879cf501b0f2baeull));
}

TEST(LayerGoldenTest, EncoderLayer) {
  Rng rng(106);
  TransformerEncoderLayer layer(48, 4, 96, &rng);
  Matrix x = RandomMatrix(5 * 6, 48, &rng);
  Matrix dy = RandomMatrix(5 * 6, 48, &rng);
  EXPECT_EQ(StepHash(&layer, x, dy, 6), PinnedFor(0x1312acafcd2e1c42ull, 0x722200d9b4b53cc8ull));
}

TEST(LayerGoldenTest, Encoder) {
  Rng rng(107);
  TransformerEncoder layer(64, 4, 128, 2, &rng);
  Matrix x = RandomMatrix(4 * 9, 64, &rng);
  Matrix dy = RandomMatrix(4 * 9, 64, &rng);
  EXPECT_EQ(StepHash(&layer, x, dy, 9), PinnedFor(0x897d39b9fc7bd64eull, 0xd7840daa67cb0149ull));
}

// ---- Sharded backward -------------------------------------------------------
//
// A batch split into k consecutive shards whose passes run concurrently, each
// in its own arena and with its own cache, the shards adding to each
// parameter gradient in turn, gives bitwise the one-shard output, input
// gradient and parameter gradients.

Matrix RowsOf(const Matrix& m, int r0, int r1) {
  Matrix out(r1 - r0, m.cols());
  std::copy(m.Row(r0), m.Row(r0) + out.size(), out.data());
  return out;
}

// Hash of output, input gradient and parameter gradients of one step of
// `layer` run as `count` concurrent shards of whole samples
// (`rows_per_sample` rows each). fwd(x, ws, cache) and
// bwd(cache, dy, ws, shard) run the layer's passes.
template <typename Cache, typename Fwd, typename Bwd>
uint64_t ShardedStepHash(Module* layer, const Matrix& x, const Matrix& dy, int rows_per_sample,
                         int count, Fwd fwd, Bwd bwd) {
  layer->ZeroGrad();
  const int samples = x.rows() / rows_per_sample;
  std::vector<int> first(static_cast<size_t>(count) + 1);
  for (int s = 0; s <= count; ++s) {
    first[static_cast<size_t>(s)] = samples * s / count * rows_per_sample;
  }
  std::vector<Workspace> ws(static_cast<size_t>(count));
  std::vector<Cache> caches(static_cast<size_t>(count));
  std::vector<Matrix> xs, dys, ys(static_cast<size_t>(count)), dxs(static_cast<size_t>(count));
  for (int s = 0; s < count; ++s) {
    xs.push_back(RowsOf(x, first[static_cast<size_t>(s)], first[static_cast<size_t>(s) + 1]));
    dys.push_back(RowsOf(dy, first[static_cast<size_t>(s)], first[static_cast<size_t>(s) + 1]));
  }
  ThreadPool pool(count);
  pool.ParallelFor(0, count, 1, [&](int64_t b, int64_t e) {
    for (int64_t s = b; s < e; ++s) {
      const size_t i = static_cast<size_t>(s);
      ys[i] = *fwd(xs[i], &ws[i], &caches[i]);
    }
  });
  pool.ParallelFor(0, count, 1, [&](int64_t b, int64_t e) {
    for (int64_t s = b; s < e; ++s) {
      const size_t i = static_cast<size_t>(s);
      dxs[i] = *bwd(caches[i], dys[i], &ws[i], Shard{static_cast<int>(s), count});
    }
  });
  Matrix y(x.rows(), ys[0].cols());
  Matrix dx(x.rows(), x.cols());
  for (int s = 0; s < count; ++s) {
    const size_t i = static_cast<size_t>(s);
    std::copy(ys[i].data(), ys[i].data() + ys[i].size(), y.Row(first[i]));
    std::copy(dxs[i].data(), dxs[i].data() + dxs[i].size(), dx.Row(first[i]));
  }
  uint64_t h = MixMatrix(MixMatrix(kFnvOffset, y), dx);
  std::vector<Param*> params;
  layer->CollectParams(&params);
  for (Param* p : params) {
    h = MixMatrix(h, p->grad);
  }
  return h;
}

template <typename Cache, typename Fwd, typename Bwd>
void ExpectShardsMatchOneShard(Module* layer, const Matrix& x, const Matrix& dy,
                               int rows_per_sample, Fwd fwd, Bwd bwd) {
  const uint64_t one = ShardedStepHash<Cache>(layer, x, dy, rows_per_sample, 1, fwd, bwd);
  for (int count = 2; count <= 5; ++count) {
    for (int rep = 0; rep < 3; ++rep) {  // the interleaving varies; the bits must not
      EXPECT_EQ(ShardedStepHash<Cache>(layer, x, dy, rows_per_sample, count, fwd, bwd), one)
          << count << " shards, rep " << rep;
    }
  }
}

TEST(ShardedBackwardTest, LinearBothActivations) {
  Rng rng(120);
  Linear layer(40, 24, &rng);
  Matrix x = RandomMatrix(13, 40, &rng);
  Matrix dy = RandomMatrix(13, 24, &rng);
  for (kernels::Activation act : {kernels::Activation::kNone, kernels::Activation::kRelu}) {
    ExpectShardsMatchOneShard<Linear::Cache>(
        &layer, x, dy, 1,
        [&](const Matrix& in, Workspace* ws, Linear::Cache* c) {
          return layer.Forward(in, ws, c, act);
        },
        [&](const Linear::Cache& c, const Matrix& d, Workspace* ws, const Shard& shard) {
          return layer.Backward(c, d, ws, shard);
        });
  }
}

TEST(ShardedBackwardTest, LayerNorm) {
  Rng rng(121);
  LayerNorm layer(24);
  Matrix x = RandomMatrix(13, 24, &rng, 3.0);
  Matrix dy = RandomMatrix(13, 24, &rng);
  ExpectShardsMatchOneShard<LayerNorm::Cache>(
      &layer, x, dy, 1,
      [&](const Matrix& in, Workspace* ws, LayerNorm::Cache* c) {
        return layer.Forward(in, ws, c);
      },
      [&](const LayerNorm::Cache& c, const Matrix& d, Workspace* ws, const Shard& shard) {
        return layer.Backward(c, d, ws, shard);
      });
}

TEST(ShardedBackwardTest, AttentionDHead12) {
  Rng rng(122);
  MultiHeadSelfAttention layer(48, 4, &rng);
  const int seq_len = 5;
  Matrix x = RandomMatrix(11 * seq_len, 48, &rng);
  Matrix dy = RandomMatrix(11 * seq_len, 48, &rng);
  ExpectShardsMatchOneShard<MultiHeadSelfAttention::Cache>(
      &layer, x, dy, seq_len,
      [&](const Matrix& in, Workspace* ws, MultiHeadSelfAttention::Cache* c) {
        return layer.Forward(in, seq_len, ws, c);
      },
      [&](const MultiHeadSelfAttention::Cache& c, const Matrix& d, Workspace* ws,
          const Shard& shard) { return layer.Backward(c, d, ws, shard); });
}

TEST(ShardedBackwardTest, Encoder) {
  Rng rng(123);
  TransformerEncoder layer(64, 4, 128, 2, &rng);
  const int seq_len = 6;
  Matrix x = RandomMatrix(11 * seq_len, 64, &rng);
  Matrix dy = RandomMatrix(11 * seq_len, 64, &rng);
  ExpectShardsMatchOneShard<TransformerEncoder::Cache>(
      &layer, x, dy, seq_len,
      [&](const Matrix& in, Workspace* ws, TransformerEncoder::Cache* c) {
        return layer.Forward(in, seq_len, ws, c);
      },
      [&](const TransformerEncoder::Cache& c, const Matrix& d, Workspace* ws,
          const Shard& shard) { return layer.Backward(c, d, ws, shard); });
}

// The scalar Adam loop the vectorized step replaced, kept as its reference.
void ReferenceAdamStep(const std::vector<Param*>& params, std::vector<Matrix>* m_state,
                       std::vector<Matrix>* v_state, int64_t t, double lr, double weight_decay) {
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  double bias1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  double bias2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  for (size_t i = 0; i < params.size(); ++i) {
    Param* p = params[i];
    Matrix& m = (*m_state)[i];
    Matrix& v = (*v_state)[i];
    for (size_t j = 0; j < p->value.size(); ++j) {
      float g = p->grad.data()[j];
      m.data()[j] = static_cast<float>(beta1 * m.data()[j] + (1.0 - beta1) * g);
      v.data()[j] = static_cast<float>(beta2 * v.data()[j] + (1.0 - beta2) * g * g);
      double m_hat = m.data()[j] / bias1;
      double v_hat = v.data()[j] / bias2;
      double update = m_hat / (std::sqrt(v_hat) + eps) + weight_decay * p->value.data()[j];
      p->value.data()[j] -= static_cast<float>(lr * update);
    }
  }
}

TEST(OptimizerTest, AdamStepMatchesTheScalarLoopBitwise) {
  Rng rng(124);
  // Odd sizes exercise every vector-loop tail.
  std::vector<Param> mine(3), ref(3);
  const int shapes[3][2] = {{37, 5}, {1, 13}, {8, 8}};
  std::vector<Param*> mine_ptrs, ref_ptrs;
  std::vector<Matrix> m_state, v_state;
  for (size_t i = 0; i < 3; ++i) {
    mine[i].InitZero(shapes[i][0], shapes[i][1]);
    mine[i].value = RandomMatrix(shapes[i][0], shapes[i][1], &rng);
    ref[i] = mine[i];
    mine_ptrs.push_back(&mine[i]);
    ref_ptrs.push_back(&ref[i]);
    m_state.emplace_back(shapes[i][0], shapes[i][1]);
    v_state.emplace_back(shapes[i][0], shapes[i][1]);
  }
  const double lr = 3e-3, weight_decay = 3e-5;
  Adam adam(mine_ptrs, lr, weight_decay);
  for (int64_t t = 1; t <= 6; ++t) {
    for (size_t i = 0; i < 3; ++i) {
      mine[i].grad = RandomMatrix(shapes[i][0], shapes[i][1], &rng, t == 3 ? 0.0 : 0.5);
      ref[i].grad = mine[i].grad;
    }
    if (t % 2 == 0) {
      adam.Step();
    } else {
      // The same step in uneven pieces, as the training step splits it.
      adam.BeginStep();
      const int64_t total = adam.num_values();
      for (int64_t b = 0; b < total; b += 29) {
        adam.Update(b, std::min(total, b + 29), 1.0f);
      }
    }
    ReferenceAdamStep(ref_ptrs, &m_state, &v_state, t, lr, weight_decay);
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(std::memcmp(mine[i].value.data(), ref[i].value.data(),
                            mine[i].value.size() * sizeof(float)),
                0)
          << "param " << i << " after step " << t;
    }
  }
}

TEST(OptimizerTest, AdamReducesQuadraticLoss) {
  // Minimize ||w - target||^2 with Adam.
  Param p;
  p.InitZero(1, 8);
  std::vector<float> target = {1, -2, 3, 0.5, -0.25, 2, -1, 0};
  Adam adam({&p}, 0.05);
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    double loss = 0.0;
    for (int j = 0; j < 8; ++j) {
      float d = p.value.At(0, j) - target[static_cast<size_t>(j)];
      loss += d * d;
      p.grad.At(0, j) = 2 * d;
    }
    if (step == 0) {
      first_loss = loss;
    }
    last_loss = loss;
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 1e-3);
}

TEST(OptimizerTest, SgdMomentumConverges) {
  Param p;
  p.InitZero(1, 4);
  Sgd sgd({&p}, 0.02);
  for (int step = 0; step < 400; ++step) {
    for (int j = 0; j < 4; ++j) {
      p.grad.At(0, j) = 2 * (p.value.At(0, j) - 1.0f);
    }
    sgd.Step();
  }
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(p.value.At(0, j), 1.0f, 1e-2);
  }
}

TEST(OptimizerTest, CyclicLrIsTriangular) {
  CyclicLr sched(0.1, 0.5, 10);
  EXPECT_DOUBLE_EQ(sched.LrAt(0), 0.1);
  EXPECT_DOUBLE_EQ(sched.LrAt(10), 0.5);
  EXPECT_DOUBLE_EQ(sched.LrAt(20), 0.1);
  EXPECT_DOUBLE_EQ(sched.LrAt(5), 0.3);
  EXPECT_DOUBLE_EQ(sched.LrAt(15), 0.3);
}

class LossGradTest : public ::testing::TestWithParam<LossKind> {};

// Loss value (and gradient into `grad`) over equal-length vectors.
double LossOf(LossKind kind, const std::vector<float>& pred, const std::vector<float>& target,
              double lambda, std::vector<float>* grad = nullptr) {
  std::vector<float> scratch(pred.size());
  std::vector<float>* g = grad != nullptr ? grad : &scratch;
  g->resize(pred.size());
  return ComputeLoss(kind, pred.data(), target.data(), pred.size(), lambda, g->data());
}

TEST_P(LossGradTest, GradientMatchesFiniteDifference) {
  LossKind kind = GetParam();
  std::vector<float> pred = {1.2f, 3.4f, 0.8f, 2.0f};
  std::vector<float> target = {1.0f, 3.0f, 1.0f, 2.5f};
  std::vector<float> grad;
  LossOf(kind, pred, target, 0.2, &grad);
  const double eps = 1e-4;
  for (size_t i = 0; i < pred.size(); ++i) {
    std::vector<float> up = pred;
    std::vector<float> down = pred;
    up[i] += static_cast<float>(eps);
    down[i] -= static_cast<float>(eps);
    double numeric =
        (LossOf(kind, up, target, 0.2) - LossOf(kind, down, target, 0.2)) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-3) << LossKindName(kind) << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LossGradTest,
                         ::testing::Values(LossKind::kMse, LossKind::kMape, LossKind::kMspe,
                                           LossKind::kHybrid));

TEST(LossTest, HybridIsMsePlusLambdaMape) {
  std::vector<float> pred = {2.0f, 4.0f};
  std::vector<float> target = {1.0f, 5.0f};
  double mse = LossOf(LossKind::kMse, pred, target, 0);
  double mape = LossOf(LossKind::kMape, pred, target, 0);
  double hybrid = LossOf(LossKind::kHybrid, pred, target, 0.3);
  EXPECT_NEAR(hybrid, mse + 0.3 * mape, 1e-9);
}

TEST(TrainingSmokeTest, TransformerFitsSimpleFunction) {
  // End-to-end: a tiny transformer + linear head should fit y = mean(x).
  Rng rng(54);
  const int seq = 3;
  const int d = 8;
  TransformerEncoder enc(d, 2, 16, 1, &rng);
  Linear head(seq * d, 1, &rng);
  std::vector<Param*> params;
  enc.CollectParams(&params);
  head.CollectParams(&params);
  Adam adam(params, 3e-3);

  auto make_batch = [&](int n, Matrix* x, std::vector<float>* y) {
    *x = RandomMatrix(n * seq, d, &rng);
    y->resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      float sum = 0.0f;
      for (int t = 0; t < seq; ++t) {
        for (int j = 0; j < d; ++j) {
          sum += x->At(i * seq + t, j);
        }
      }
      (*y)[static_cast<size_t>(i)] = sum / (seq * d);
    }
  };

  double first_loss = -1.0;
  double last_loss = 0.0;
  for (int step = 0; step < 150; ++step) {
    Matrix x;
    std::vector<float> y;
    make_batch(16, &x, &y);
    Workspace ws;
    TransformerEncoder::Cache enc_cache;
    Linear::Cache head_cache;
    const Matrix& h = *enc.Forward(x, seq, &ws, &enc_cache);
    // Flatten each sample's rows into one row for the head.
    Matrix flat(16, seq * d);
    for (int i = 0; i < 16; ++i) {
      for (int t = 0; t < seq; ++t) {
        for (int j = 0; j < d; ++j) {
          flat.At(i, t * d + j) = h.At(i * seq + t, j);
        }
      }
    }
    const Matrix& pred = *head.Forward(flat, &ws, &head_cache);
    double loss = 0.0;
    Matrix dpred(16, 1);
    for (int i = 0; i < 16; ++i) {
      float diff = pred.At(i, 0) - y[static_cast<size_t>(i)];
      loss += diff * diff / 16.0;
      dpred.At(i, 0) = 2.0f * diff / 16.0f;
    }
    if (first_loss < 0) {
      first_loss = loss;
    }
    last_loss = loss;
    const Matrix& dflat = *head.Backward(head_cache, dpred, &ws);
    Matrix dh(16 * seq, d);
    for (int i = 0; i < 16; ++i) {
      for (int t = 0; t < seq; ++t) {
        for (int j = 0; j < d; ++j) {
          dh.At(i * seq + t, j) = dflat.At(i, t * d + j);
        }
      }
    }
    enc.Backward(enc_cache, dh, &ws);
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

}  // namespace
}  // namespace cdmpp
