// Thread-parallel data-plane contract tests:
//
//   * WorkspacePool checkout/return semantics — exclusivity under concurrent
//     checkout, LIFO warm reuse, reset-on-checkout.
//   * Sharded training — the pinned golden parameters (tests/
//     golden_training.h) come out bitwise the same at pool sizes 1, 2, 3
//     and 8 under both kernel ISAs; size 3 splits batches unevenly.
//   * Thread-count invariance — Forward / PredictBatched / Predict results
//     are BITWISE identical for every pool size, for fp32 and int8, under
//     both kernel ISAs, and across batch splits.
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/predictor.h"
#include "src/nn/transformer.h"
#include "src/nn/workspace.h"
#include "src/serve/prediction_service.h"
#include "src/support/cpu_features.h"
#include "src/support/parallel_for.h"
#include "src/tir/schedule.h"
#include "tests/golden_training.h"

namespace cdmpp {
namespace {

// Routes ThreadPool::Global() to a private pool of `threads` threads for the
// enclosing scope. The override is cleared before the pool is destroyed.
struct ScopedGlobalPool {
  explicit ScopedGlobalPool(int threads) : pool(threads) {
    ThreadPool::SetGlobalForTesting(&pool);
  }
  ~ScopedGlobalPool() { ThreadPool::SetGlobalForTesting(nullptr); }
  ThreadPool pool;
};

struct ScopedIsa {
  explicit ScopedIsa(KernelIsa isa) : prev(ActiveKernelIsa()), ok(SetKernelIsa(isa)) {}
  ~ScopedIsa() { SetKernelIsa(prev); }
  KernelIsa prev;
  bool ok;
};

// Runs `body` once per available ISA with that ISA dispatched.
template <typename Body>
void ForEachIsa(Body&& body) {
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    ScopedIsa scoped(isa);
    if (!scoped.ok) {
      continue;  // AVX2 not available on this host/build
    }
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(isa));
    body();
  }
}

// ---- WorkspacePool ---------------------------------------------------------

TEST(WorkspacePoolTest, CheckoutHandsOutDistinctResetArenas) {
  WorkspacePool pool;
  Workspace* a = pool.Checkout();
  Workspace* b = pool.Checkout();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.num_arenas(), 2u);
  EXPECT_EQ(pool.num_free(), 0u);
  a->NewMatrix(4, 4);
  pool.Return(a);
  pool.Return(b);
  EXPECT_EQ(pool.num_free(), 2u);
  // LIFO: the most recently returned arena (b) is lent next; the arena that
  // had live slots comes back Reset() but with its capacity intact.
  EXPECT_EQ(pool.Checkout(), b);
  Workspace* a2 = pool.Checkout();
  EXPECT_EQ(a2, a);
  EXPECT_EQ(a2->live_slots(), 0u);
  EXPECT_EQ(a2->num_slots(), 1u);  // slot pooled across the lease boundary
  EXPECT_GE(a2->pooled_floats(), 16u);
  EXPECT_EQ(pool.num_arenas(), 2u);  // no growth on warm re-checkout
}

TEST(WorkspacePoolTest, ConcurrentCheckoutReturnNeverSharesAnArena) {
  WorkspacePool pool;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::mutex mu;
  std::set<Workspace*> held;
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        WorkspacePool::Lease lease = pool.Acquire();
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!held.insert(lease.get()).second) {
            overlap.store(true);
          }
        }
        // Exercise the arena while held: shapes vary per thread so reuse
        // across threads would be visible as a torn write.
        Matrix* m = lease->NewMatrix(2 + t, 3 + (i % 5));
        m->Fill(static_cast<float>(t));
        EXPECT_EQ(m->At(0, 0), static_cast<float>(t));
        {
          std::lock_guard<std::mutex> lock(mu);
          held.erase(lease.get());
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_FALSE(overlap.load()) << "two threads held the same arena at once";
  EXPECT_LE(pool.num_arenas(), static_cast<size_t>(kThreads));
  EXPECT_EQ(pool.num_free(), pool.num_arenas());  // every lease returned
}

// ---- Thread-count invariance ----------------------------------------------

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return m;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": outputs differ across thread counts";
}

// ---- Sharded training ------------------------------------------------------

TEST(ShardedTrainingTest, GoldenParamsHoldAtEveryPoolSize) {
  ForEachIsa([&] {
    const GoldenHashes want = ExpectedGoldenHashes();
    for (int threads : {1, 2, 3, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ScopedGlobalPool scoped(threads);
      const GoldenHashes got = RunGoldenTraining();
      EXPECT_EQ(got.pretrain, want.pretrain);
      EXPECT_EQ(got.finetune, want.finetune);
    }
  });
}

TEST(ThreadInvarianceTest, EncoderForwardBitwiseAcrossThreadCounts) {
  Rng rng(71);
  // A seq_len that exercises ragged kernel tails. Both flavours of the one
  // forward: inference and training (with a cache).
  TransformerEncoder enc(/*d_model=*/32, /*num_heads=*/4, /*d_ff=*/64, /*num_layers=*/2,
                         &rng);
  const int seq_len = 7;
  const int batch = 48;
  Matrix x = RandomMatrix(batch * seq_len, 32, &rng);
  auto forward = [&](bool train) {
    Workspace ws;
    TransformerEncoder::Cache cache;
    return Matrix(*enc.Forward(x, seq_len, &ws, train ? &cache : nullptr));
  };
  ForEachIsa([&] {
    for (bool train : {false, true}) {
      SCOPED_TRACE(train ? "training forward" : "inference forward");
      Matrix baseline;
      {
        ScopedGlobalPool serial(1);
        baseline = forward(train);
      }
      for (int threads : {2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ScopedGlobalPool scoped(threads);
        for (int rep = 0; rep < 3; ++rep) {  // chunk->thread mapping varies; results must not
          Matrix y = forward(train);
          ExpectBitwiseEqual(baseline, y, "encoder forward");
        }
      }
    }
  });
}

// One tiny trained predictor shared by the serving-contract tests.
struct TestWorld {
  Dataset ds;
  std::unique_ptr<CdmppPredictor> predictor;
  std::vector<CompactAst> workload;
};

TestWorld& World() {
  static TestWorld* world = [] {
    auto* w = new TestWorld();
    DatasetOptions opts;
    opts.device_ids = {0};
    opts.schedules_per_task = 2;
    opts.max_networks = 4;
    opts.seed = 41;
    w->ds = BuildDataset(opts);

    PredictorConfig cfg;
    cfg.d_model = 16;
    cfg.num_heads = 2;
    cfg.d_ff = 32;
    cfg.num_layers = 1;
    cfg.z_dim = 16;
    cfg.device_embed_dim = 8;
    cfg.device_hidden_dim = 16;
    cfg.decoder_hidden = {16};
    cfg.epochs = 1;
    cfg.seed = 9;
    w->predictor = std::make_unique<CdmppPredictor>(cfg);
    Rng rng(10);
    SplitIndices split = SplitDataset(w->ds, {0}, {}, &rng);
    w->predictor->Pretrain(w->ds, split.train, split.valid);

    Rng srng(11);
    for (const TaskInfo& info : w->ds.tasks) {
      for (int k = 0; k < 2; ++k) {
        w->workload.push_back(
            ExtractCompactAst(GenerateProgram(info.task, SampleSchedule(info.task, &srng))));
      }
    }
    w->predictor->PrepareQuantizedInference();
    for (const CompactAst& ast : w->workload) {
      w->predictor->EnsureQuantizedHead(ast.num_leaves);  // also ensures the fp32 head
    }
    return w;
  }();
  return *world;
}

AstBatchView ViewOf(const TestWorld& w) {
  AstBatchView view;
  for (const CompactAst& ast : w.workload) {
    view.asts.push_back(&ast);
    view.device_ids.push_back(0);
  }
  return view;
}

// The serving contract, acceptance-gated: PredictBatched output is bitwise
// identical across CDMPP_NUM_THREADS in {1, 2, 8} and across batch splits,
// for both precision tiers (fp32 and int8), under both ISAs.
TEST(ThreadInvarianceTest, PredictBatchedBitwiseAcrossThreadCountsFp32AndInt8) {
  TestWorld& w = World();
  AstBatchView view = ViewOf(w);
  for (Precision mode : {Precision::kFp32, Precision::kInt8}) {
    const bool quantized = mode != Precision::kFp32;
    SCOPED_TRACE(PrecisionName(mode));
    ForEachIsa([&] {
      auto predict_batched = [&](std::vector<double>* out) {
        Workspace ws;
        out->assign(view.size(), -1.0);
        if (quantized) {
          w.predictor->PredictBatchedQuantized(view, &ws, out->data());
        } else {
          w.predictor->PredictBatched(view, &ws, out->data());
        }
      };
      std::vector<double> baseline;
      {
        ScopedGlobalPool serial(1);
        predict_batched(&baseline);
      }
      for (int threads : {2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ScopedGlobalPool scoped(threads);
        std::vector<double> batched;
        for (int rep = 0; rep < 3; ++rep) {
          predict_batched(&batched);
          ASSERT_EQ(batched, baseline) << "thread count changed served predictions";
        }
        // Batch-split invariance under the same multi-thread pool: every AST
        // predicted through its own singleton view must match its row in the
        // full batched view bitwise.
        Workspace single_ws;
        for (size_t i = 0; i < w.workload.size(); ++i) {
          AstBatchView one;
          one.asts = {&w.workload[i]};
          one.device_ids = {0};
          double pred = -1.0;
          if (quantized) {
            w.predictor->PredictBatchedQuantized(one, &single_ws, &pred);
          } else {
            w.predictor->PredictBatched(one, &single_ws, &pred);
          }
          EXPECT_EQ(baseline[i], pred) << "request " << i;  // bitwise
        }
      }
    });
  }
}

TEST(ThreadInvarianceTest, ShardedPredictMatchesServingForwardAtEveryPoolSize) {
  // Predict and EncodeLatent split each batch into shards across the pool;
  // every row must be bitwise the serving forward's, at every pool size.
  TestWorld& w = World();
  std::vector<int> indices(w.ds.samples.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<int>(i);
  }
  Matrix latents_serial;
  {
    ScopedGlobalPool serial(1);
    latents_serial = w.predictor->EncodeLatent(w.ds, indices);  // also creates missing heads
  }
  const std::vector<double> served = w.predictor->PredictBatched(DatasetView(w.ds, indices));
  for (int threads : {1, 2, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedGlobalPool scoped(threads);
    EXPECT_EQ(w.predictor->Predict(w.ds, indices), served);
    ExpectBitwiseEqual(latents_serial, w.predictor->EncodeLatent(w.ds, indices), "latents");
  }
}

TEST(ThreadInvarianceTest, ServiceOnAMultiThreadPoolMatchesDirectForward) {
  // Worker-level batching on a multi-thread pool: a 2-worker service must
  // not change a single bit of the served predictions.
  TestWorld& w = World();
  AstBatchView view = ViewOf(w);
  std::vector<double> expected(view.size(), -1.0);
  {
    ScopedGlobalPool serial(1);
    Workspace ws;
    w.predictor->PredictBatched(view, &ws, expected.data());
  }
  ScopedGlobalPool scoped(4);
  ServeOptions opts;
  opts.num_workers = 2;
  opts.enable_cache = false;
  opts.precision = Precision::kFp32;
  PredictionService service(w.predictor.get(), opts);
  std::vector<std::future<double>> futures;
  futures.reserve(w.workload.size());
  for (const CompactAst& ast : w.workload) {
    futures.push_back(service.Submit(ast, 0));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "request " << i;  // bitwise
  }
}

}  // namespace
}  // namespace cdmpp
