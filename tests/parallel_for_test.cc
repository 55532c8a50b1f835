// ThreadPool / ParallelFor contract tests: partition correctness, nested
// submits, exception propagation, single-thread determinism, concurrent
// callers (one region at a time, the rest inline) and in-order chunk claims.
#include <atomic>
#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/support/parallel_for.h"

namespace cdmpp {
namespace {

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  for (auto& t : touched) {
    t.store(0);
  }
  pool.ParallelFor(0, kN, /*grain=*/64, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      touched[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(touched[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ChunksRespectGrainAndPartitionTheRange) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  constexpr int64_t kBegin = 3;
  constexpr int64_t kEnd = 1001;
  constexpr int64_t kGrain = 37;
  pool.ParallelFor(kBegin, kEnd, kGrain, [&](int64_t b, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, kBegin);
  EXPECT_EQ(chunks.back().second, kEnd);
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_LT(chunks[i].first, chunks[i].second);
    EXPECT_LE(chunks[i].second - chunks[i].first, kGrain);
    if (i > 0) {
      EXPECT_EQ(chunks[i].first, chunks[i - 1].second) << "gap or overlap at chunk " << i;
    }
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(7, 3, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, NestedSubmitRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr int kOuter = 64;
  constexpr int kInner = 256;
  std::vector<std::atomic<int64_t>> sums(kOuter);
  for (auto& s : sums) {
    s.store(0);
  }
  pool.ParallelFor(0, kOuter, 4, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      // Nested submit: must run inline on this thread, never deadlock.
      pool.ParallelFor(0, kInner, 16, [&](int64_t ib, int64_t ie) {
        int64_t local = 0;
        for (int64_t i = ib; i < ie; ++i) {
          local += i;
        }
        sums[static_cast<size_t>(o)].fetch_add(local);
      });
    }
  });
  const int64_t expected = static_cast<int64_t>(kInner) * (kInner - 1) / 2;
  for (int o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[static_cast<size_t>(o)].load(), expected);
  }
}

TEST(ParallelForTest, ExceptionPropagatesToCallerAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 8,
                       [&](int64_t b, int64_t) {
                         if (b >= 496 && b < 504) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);

  // The pool must remain fully usable after a failed region.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 100, 7, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) {
      local += i;
    }
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ParallelForTest, SingleThreadPoolIsSerialAndDeterministic) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::pair<int64_t, int64_t>> chunks;  // no mutex needed: serial
    std::vector<int> order;
    pool.ParallelFor(0, 100, 10, [&](int64_t b, int64_t e) {
      chunks.emplace_back(b, e);
      order.push_back(static_cast<int>(b));
    });
    // One inline invocation over the whole range, identical on every run.
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{0, 100}));
    EXPECT_EQ(order, std::vector<int>{0});
  }
}

TEST(ResolveNumThreadsTest, FallsBackOnMalformedOrNonPositiveValues) {
  // Regression: a non-numeric or <= 0 CDMPP_NUM_THREADS must never yield a
  // 0/negative pool size — it falls back to the hardware count.
  EXPECT_EQ(ThreadPool::ResolveNumThreads(nullptr, 8), 8);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("", 8), 8);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("abc", 8), 8);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("0", 8), 8);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("-4", 8), 8);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("  ", 8), 8);
  // Partial parses ("8abc") are rejected, not truncated to 8.
  EXPECT_EQ(ThreadPool::ResolveNumThreads("8abc", 4), 4);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("1.5", 4), 4);
}

TEST(ResolveNumThreadsTest, AcceptsAndClampsNumericValues) {
  EXPECT_EQ(ThreadPool::ResolveNumThreads("1", 8), 1);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("16", 8), 16);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("+3", 8), 3);
  // Huge and overflowing values clamp to the pool ceiling.
  EXPECT_EQ(ThreadPool::ResolveNumThreads("4096", 8), ThreadPool::kMaxThreads);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("99999999999999999999", 8),
            ThreadPool::kMaxThreads);
}

TEST(ResolveNumThreadsTest, HardwareFallbackIsAlwaysPositive) {
  // hardware_concurrency() may report 0; the pool still needs >= 1 thread.
  EXPECT_EQ(ThreadPool::ResolveNumThreads(nullptr, 0), 1);
  EXPECT_EQ(ThreadPool::ResolveNumThreads("junk", 0), 1);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(nullptr, -2), 1);
}

uint64_t CounterOrZero(const std::map<std::string, uint64_t>& counters,
                       const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

TEST(ParallelForTest, ConcurrentCallerRunsInlineWhileARegionIsInFlight) {
  // One region at a time: a caller arriving while another region is in
  // flight runs its whole range inline, on its own thread, in one call.
  ThreadPool pool(4);
  const auto before = obs::MetricsRegistry::Global().CounterValues();
  std::atomic<bool> region_started{false};
  std::atomic<bool> second_done{false};
  std::thread first([&] {
    pool.ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
      region_started.store(true);
      while (!second_done.load()) {
        std::this_thread::yield();
      }
    });
  });
  while (!region_started.load()) {
    std::this_thread::yield();
  }
  std::vector<std::pair<int64_t, int64_t>> calls;  // inline: no mutex needed
  std::vector<std::thread::id> ran_on;
  pool.ParallelFor(0, 100, 10, [&](int64_t b, int64_t e) {
    calls.emplace_back(b, e);
    ran_on.push_back(std::this_thread::get_id());
  });
  second_done.store(true);
  first.join();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::pair<int64_t, int64_t>{0, 100}));
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  const auto after = obs::MetricsRegistry::Global().CounterValues();
  EXPECT_EQ(CounterOrZero(after, "parallel_for.serial_contended"),
            CounterOrZero(before, "parallel_for.serial_contended") + 1);
  EXPECT_EQ(CounterOrZero(after, "parallel_for.forked"),
            CounterOrZero(before, "parallel_for.forked") + 1);
}

TEST(ParallelForTest, ChunkMayWaitOnTheChunkBeforeIt) {
  // Chunks are claimed in increasing order, so a chunk that waits for its
  // predecessor (the training shards' ordered gradient accumulation does)
  // always finds it claimed and running: no deadlock at any pool size.
  for (int threads : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    for (int rep = 0; rep < 20; ++rep) {
      constexpr int kChunks = 16;
      std::vector<std::atomic<bool>> done(kChunks);
      for (auto& d : done) {
        d.store(false);
      }
      pool.ParallelFor(0, kChunks, 1, [&](int64_t b, int64_t e) {
        for (int64_t j = b; j < e; ++j) {
          while (j > 0 && !done[static_cast<size_t>(j - 1)].load()) {
            std::this_thread::yield();
          }
          done[static_cast<size_t>(j)].store(true);
        }
      });
      EXPECT_TRUE(done[kChunks - 1].load());
    }
  }
}

TEST(ParallelForTest, ExceptionStaysWithItsCaller) {
  // Failures must not leak between concurrent callers (one forks, the other
  // runs inline): the throwing caller sees its exception, the healthy caller
  // sees its sums.
  ThreadPool pool(4);
  constexpr int kReps = 25;
  std::atomic<int> caught{0};
  std::thread thrower([&] {
    for (int rep = 0; rep < kReps; ++rep) {
      try {
        // Whichever chunk holds element 256 throws, forked or inline.
        pool.ParallelFor(0, 512, 16, [&](int64_t b, int64_t e) {
          if (b <= 256 && 256 < e) {
            throw std::runtime_error("boom");
          }
        });
      } catch (const std::runtime_error&) {
        caught.fetch_add(1);
      }
    }
  });
  std::thread healthy([&] {
    for (int rep = 0; rep < kReps; ++rep) {
      std::atomic<int64_t> sum{0};
      pool.ParallelFor(0, 1000, 32, [&](int64_t b, int64_t e) {
        int64_t local = 0;
        for (int64_t i = b; i < e; ++i) {
          local += i;
        }
        sum.fetch_add(local);
      });
      ASSERT_EQ(sum.load(), 1000 * 999 / 2) << "rep " << rep;
    }
  });
  thrower.join();
  healthy.join();
  EXPECT_EQ(caught.load(), kReps);
}

TEST(ParallelForTest, GlobalPoolWorks) {
  std::atomic<int64_t> sum{0};
  ThreadPool::Global().ParallelFor(0, 1000, 32, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) {
      local += i;
    }
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
  EXPECT_GE(ThreadPool::Global().num_threads(), 1);
}

}  // namespace
}  // namespace cdmpp
