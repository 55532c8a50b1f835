// A persistent fork-join worker pool with a single primitive: ParallelFor over
// an integer range.
//
// The library forks coarse work only: training splits each batch into
// consecutive sample shards and runs one region per phase (forward, backward,
// optimizer step), and evaluation shards its forwards the same way (see
// src/core/predictor.cc). Layers, kernels, serving and search never fork
// (tools/lint_invariants.py rule R5): a serve or tune worker runs each forward
// on its own thread.
//
// The pool runs one region at a time. A caller that finds it busy, or that is
// already inside a region, runs its whole range inline: for the coarse work
// above that is as fast as waiting, and it can never deadlock.
//
// Sizing: the global pool honors the CDMPP_NUM_THREADS environment variable
// (a complete decimal integer in [1, 1024]); malformed or out-of-range values
// fall back to std::thread::hardware_concurrency(), itself clamped to >= 1.
// Tests can construct private pools of any size.
#ifndef SRC_SUPPORT_PARALLEL_FOR_H_
#define SRC_SUPPORT_PARALLEL_FOR_H_

#include <cstdint>
#include <type_traits>

namespace cdmpp {

class ThreadPool {
 public:
  // Spawns num_threads - 1 workers; the calling thread participates in every
  // region, so num_threads == 1 means "no extra threads, run inline".
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool (created on first use, never destroyed).
  static ThreadPool& Global();

  // Routes Global() to `pool` until called again (nullptr restores the real
  // global). Test/bench hook: the real global reads CDMPP_NUM_THREADS once
  // per process, so running one process under several pool sizes needs this
  // seam. Switch only while no region is in flight, and clear the override
  // before destroying `pool`.
  static void SetGlobalForTesting(ThreadPool* pool);

  // Resolves the pool size Global() uses from a CDMPP_NUM_THREADS value
  // (may be null) and the detected hardware concurrency. A value that is not
  // a complete decimal integer, or is < 1, falls back to `hardware_threads`;
  // every result is clamped to [1, kMaxThreads], including the fallback
  // (hardware_concurrency() may legitimately return 0). Exposed for the
  // regression tests; Global() is a singleton so the env var itself is only
  // read once per process.
  static constexpr int kMaxThreads = 1024;
  static int ResolveNumThreads(const char* env_value, int hardware_threads);

  int num_threads() const { return num_threads_; }

  // Splits [begin, end) into chunks of at most `grain` iterations, chunk j
  // being [begin + j*grain, min(end, begin + (j+1)*grain)), and invokes
  // fn(chunk_begin, chunk_end) across the pool; the calling thread
  // participates. Blocks until every chunk has completed.
  //
  // - Chunks are claimed in increasing order from one shared cursor, so when
  //   chunk j runs, every chunk before it has been claimed by a thread that
  //   is running it or is done with it. A chunk may therefore wait on an
  //   earlier chunk (the training shards' ordered gradient accumulation does)
  //   without deadlock, at any pool size.
  // - Runs serially inline (one fn(begin, end) call) when the range fits a
  //   single chunk, the pool has one thread, another region is in flight, or
  //   the caller is itself inside a region.
  // - Exceptions thrown by fn are caught; the first one is rethrown on the
  //   calling thread after all remaining chunks have been claimed (their
  //   bodies are skipped once a failure is recorded).
  template <typename Fn>
  void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    using F = typename std::remove_reference<Fn>::type;
    RunImpl(begin, end, grain,
            [](void* ctx, int64_t b, int64_t e) { (*static_cast<F*>(ctx))(b, e); },
            const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  struct Impl;

  void RunImpl(int64_t begin, int64_t end, int64_t grain,
               void (*fn)(void*, int64_t, int64_t), void* ctx);

  int num_threads_ = 1;
  Impl* impl_ = nullptr;
};

}  // namespace cdmpp

#endif  // SRC_SUPPORT_PARALLEL_FOR_H_
