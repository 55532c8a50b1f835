#include <cmath>

#include <gtest/gtest.h>

#include "src/nn/attention.h"
#include "src/nn/loss.h"
#include "src/nn/matrix.h"
#include "src/nn/optimizer.h"
#include "src/nn/transformer.h"
#include "src/support/cpu_features.h"
#include "src/support/fnv_hash.h"
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
  step.dx = layer->Backward(cache, dy);
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
  Matrix dx_relu = layer.Backward(relu_cache, dy);
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
    p.grad.Zero();
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
    p.grad.Zero();
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

TEST_P(LossGradTest, GradientMatchesFiniteDifference) {
  LossKind kind = GetParam();
  std::vector<float> pred = {1.2f, 3.4f, 0.8f, 2.0f};
  std::vector<float> target = {1.0f, 3.0f, 1.0f, 2.5f};
  LossResult res = ComputeLoss(kind, pred, target, 0.2);
  const double eps = 1e-4;
  for (size_t i = 0; i < pred.size(); ++i) {
    std::vector<float> up = pred;
    std::vector<float> down = pred;
    up[i] += static_cast<float>(eps);
    down[i] -= static_cast<float>(eps);
    double numeric = (ComputeLoss(kind, up, target, 0.2).value -
                      ComputeLoss(kind, down, target, 0.2).value) /
                     (2 * eps);
    EXPECT_NEAR(res.grad[i], numeric, 1e-3) << LossKindName(kind) << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LossGradTest,
                         ::testing::Values(LossKind::kMse, LossKind::kMape, LossKind::kMspe,
                                           LossKind::kHybrid));

TEST(LossTest, HybridIsMsePlusLambdaMape) {
  std::vector<float> pred = {2.0f, 4.0f};
  std::vector<float> target = {1.0f, 5.0f};
  double mse = ComputeLoss(LossKind::kMse, pred, target, 0).value;
  double mape = ComputeLoss(LossKind::kMape, pred, target, 0).value;
  double hybrid = ComputeLoss(LossKind::kHybrid, pred, target, 0.3).value;
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
    for (Param* p : params) {
      p->grad.Zero();
    }
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
    Matrix dflat = head.Backward(head_cache, dpred);
    Matrix dh(16 * seq, d);
    for (int i = 0; i < 16; ++i) {
      for (int t = 0; t < seq; ++t) {
        for (int j = 0; j < d; ++j) {
          dh.At(i * seq + t, j) = dflat.At(i, t * d + j);
        }
      }
    }
    enc.Backward(enc_cache, dh);
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

}  // namespace
}  // namespace cdmpp
