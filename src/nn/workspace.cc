#include "src/nn/workspace.h"

#include "src/obs/metrics.h"

namespace cdmpp {

namespace {

// Pool traffic counters: checkouts tell how many arenas the data plane
// leases; the steady-state pool size tracks the peak number of live leases
// (serve workers plus training or evaluation shards), so growths that keep
// climbing after warm-up mean arenas are leaking or the workload keeps
// outgrowing the pool.
obs::Counter& CheckoutCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("workspace_pool.checkouts");
  return c;
}
obs::Counter& GrowthCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("workspace_pool.growths");
  return c;
}

}  // namespace

Matrix* Workspace::NewMatrix(int rows, int cols) {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<Matrix>());
  }
  Matrix* m = slots_[cursor_].get();
  ++cursor_;
  m->Resize(rows, cols);
  return m;
}

int16_t* Workspace::NewI16(size_t n) {
  if (i16_cursor_ == i16_slots_.size()) {
    i16_slots_.push_back(std::make_unique<std::vector<int16_t>>());
  }
  std::vector<int16_t>* buf = i16_slots_[i16_cursor_].get();
  ++i16_cursor_;
  buf->resize(n);  // vector::resize keeps capacity: no heap traffic once warm
  return buf->data();
}

size_t Workspace::pooled_floats() const {
  size_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->capacity();
  }
  return total;
}

size_t Workspace::pooled_i16() const {
  size_t total = 0;
  for (const auto& slot : i16_slots_) {
    total += slot->capacity();
  }
  return total;
}

Workspace* WorkspacePool::Checkout() {
  CheckoutCounter().Add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      Workspace* ws = free_.back();
      free_.pop_back();
      ws->Reset();
      return ws;
    }
  }
  // Growth path: allocate outside the lock (the free list was empty, so no
  // other thread can hand this arena out before we append it).
  GrowthCounter().Add();
  auto owned = std::make_unique<Workspace>();
  Workspace* ws = owned.get();
  std::lock_guard<std::mutex> lock(mu_);
  arenas_.push_back(std::move(owned));
  return ws;
}

void WorkspacePool::Return(Workspace* ws) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(ws);
}

WorkspacePool& WorkspacePool::Global() {
  // Leaked on purpose, like ThreadPool::Global(): leases may be held by
  // worker threads whose shutdown order vs. static destruction is unknowable.
  static WorkspacePool* pool = new WorkspacePool();
  return *pool;
}

size_t WorkspacePool::num_arenas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arenas_.size();
}

size_t WorkspacePool::num_free() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

}  // namespace cdmpp
