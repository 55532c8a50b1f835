#include "src/support/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace cdmpp {

namespace {

// Fork-vs-inline decision counters (obs/ depends only on std, so support/
// including it keeps the layering acyclic).
obs::Counter& ForkDecisionCounter(const char* which) {
  return obs::MetricsRegistry::Global().GetCounter(std::string("parallel_for.") + which);
}
void CountForked() {
  static obs::Counter& c = ForkDecisionCounter("forked");
  c.Add();
}
void CountSerialSmall() {
  static obs::Counter& c = ForkDecisionCounter("serial_small");
  c.Add();
}
// A region was in flight (another caller's, or the caller's own, enclosing
// one), so the range ran inline.
void CountSerialContended() {
  static obs::Counter& c = ForkDecisionCounter("serial_contended");
  c.Add();
}

// True while the current thread runs chunks of a region: a pool worker, or a
// caller driving one. Its ParallelFor calls run inline.
thread_local bool tls_in_parallel_region = false;

// Non-null while a test/bench has routed Global() elsewhere.
std::atomic<ThreadPool*> g_global_override{nullptr};

}  // namespace

// One region at a time. The caller holds `region_mu` for the whole region,
// publishes the chunk descriptor under `mu`, wakes as many workers as there
// are chunks for them, and drains chunks alongside them. Workers join a
// region only while it is open; the caller closes it once it has no chunk
// left to claim and then waits for the workers that joined, so a worker that
// wakes late never touches a finished region.
struct ThreadPool::Impl {
  std::mutex region_mu;  // one region in flight; try-locked by callers

  // Guarded by `mu` unless noted.
  std::mutex mu;
  std::condition_variable work_cv;  // workers: a region was published
  std::condition_variable done_cv;  // caller: the last joined worker left
  uint64_t generation = 0;          // bumped per published region
  bool open = false;                // the current region accepts workers
  int running = 0;                  // workers inside the current region
  bool shutdown = false;
  std::exception_ptr error;  // first failure of the current region

  // The current region, written under `mu` before it opens; read by
  // executors after they joined under `mu`.
  void (*fn)(void*, int64_t, int64_t) = nullptr;
  void* ctx = nullptr;
  int64_t end = 0;
  int64_t grain = 1;
  // Chunk-claim cursor. Relaxed: the ticket value is the whole message.
  std::atomic<int64_t> next{0};
  // Advisory skip-the-remaining-bodies flag; the exception itself travels
  // through `error` under `mu`.
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;

  void Drain() {
    for (;;) {
      const int64_t i = next.fetch_add(grain, std::memory_order_relaxed);
      if (i >= end) {
        return;
      }
      if (failed.load(std::memory_order_relaxed)) {
        continue;
      }
      try {
        fn(ctx, i, std::min(end, i + grain));
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        failed.store(true, std::memory_order_relaxed);
        if (!error) {
          error = std::current_exception();
        }
      }
    }
  }

  void WorkerLoop() {
    tls_in_parallel_region = true;  // workers only ever run region chunks
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      work_cv.wait(lock, [&] { return shutdown || generation != seen; });
      if (shutdown) {
        return;
      }
      seen = generation;
      if (!open) {
        continue;  // woke after the caller closed the region
      }
      ++running;
      lock.unlock();
      Drain();
      lock.lock();
      if (--running == 0 && !open) {
        done_cv.notify_one();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  impl_ = new Impl();
  impl_->threads.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    impl_->threads.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->threads) {
    t.join();
  }
  delete impl_;
}

int ThreadPool::ResolveNumThreads(const char* env_value, int hardware_threads) {
  const int fallback =
      std::min(std::max(1, hardware_threads), kMaxThreads);  // hardware may report 0
  if (env_value == nullptr || env_value[0] == '\0') {
    return fallback;
  }
  char* endp = nullptr;
  const long v = std::strtol(env_value, &endp, 10);
  // Reject partial parses ("8abc"), non-numeric values, and anything below
  // 1 — a pool must always have at least the calling thread. Positive
  // overflow saturates to LONG_MAX and lands in the clamp below.
  if (endp == env_value || *endp != '\0' || v < 1) {
    return fallback;
  }
  return static_cast<int>(std::min<long>(v, kMaxThreads));
}

ThreadPool& ThreadPool::Global() {
  if (ThreadPool* override_pool = g_global_override.load(std::memory_order_acquire)) {
    return *override_pool;
  }
  // Leaked on purpose: worker threads must never outlive their pool, and
  // static destruction order at process exit cannot guarantee that.
  static ThreadPool* pool =
      new ThreadPool(ResolveNumThreads(std::getenv("CDMPP_NUM_THREADS"),
                                       static_cast<int>(std::thread::hardware_concurrency())));
  return *pool;
}

void ThreadPool::SetGlobalForTesting(ThreadPool* pool) {
  g_global_override.store(pool, std::memory_order_release);
}

void ThreadPool::RunImpl(int64_t begin, int64_t end, int64_t grain,
                         void (*fn)(void*, int64_t, int64_t), void* ctx) {
  if (begin >= end) {
    return;
  }
  grain = std::max<int64_t>(1, grain);
  if (num_threads_ == 1 || end - begin <= grain) {
    CountSerialSmall();
    fn(ctx, begin, end);
    return;
  }
  // Checked before the try-lock: the thread driving a region holds
  // region_mu, and re-locking it would be undefined.
  std::unique_lock<std::mutex> region;
  if (!tls_in_parallel_region) {
    region = std::unique_lock<std::mutex>(impl_->region_mu, std::try_to_lock);
  }
  if (!region.owns_lock()) {
    CountSerialContended();
    fn(ctx, begin, end);
    return;
  }
  CountForked();

  Impl& im = *impl_;
  const int64_t chunks = (end - begin + grain - 1) / grain;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.fn = fn;
    im.ctx = ctx;
    im.end = end;
    im.grain = grain;
    im.next.store(begin, std::memory_order_relaxed);
    im.failed.store(false, std::memory_order_relaxed);
    im.error = nullptr;
    im.open = true;
    ++im.generation;
  }
  // The caller takes chunks too: wake a worker per remaining chunk at most.
  const int64_t wake = std::min<int64_t>(num_threads_ - 1, chunks - 1);
  for (int64_t i = 0; i < wake; ++i) {
    im.work_cv.notify_one();
  }

  tls_in_parallel_region = true;
  im.Drain();
  tls_in_parallel_region = false;

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(im.mu);
    im.open = false;  // no worker joins past this point
    im.done_cv.wait(lock, [&] { return im.running == 0; });
    err = im.error;
    im.error = nullptr;
  }
  if (err) {
    std::rethrow_exception(err);
  }
}

}  // namespace cdmpp
