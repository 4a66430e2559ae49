// The worker pool every parallel fan-out uses: the sweep grid, what-if
// branch replays and bench/paper's replications. WorkQueue is a
// mutex+condvar MPMC queue in the spirit of the Worker<Scheduler,
// CommandRef> + queue idiom (SNIPPETS.md): producers push items and
// close() the queue, workers block in pop() until an item arrives or the
// queue is closed and drained. Deliberately not lock-free: each item is a
// whole discrete-event simulation, so queue overhead is noise, and the
// simple implementation is easy to reason about under ThreadSanitizer.
// parallel_for runs an index range on a pool fed by one.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace rupam {

template <typename T>
class WorkQueue {
 public:
  /// Enqueue one item. Push after close() is a programming error; items
  /// pushed then are silently dropped by design (the queue is draining).
  void push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
  }

  /// Blocking dequeue. Returns false — forever, for every caller — once
  /// the queue is closed and drained; that is the workers' exit signal.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// No more pushes are coming: wake every blocked worker so the pool can
  /// drain the remaining items and exit.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Run body(i) once for every i in [0, n) on min(threads, n) workers
/// (threads <= 0: hardware concurrency). Callers write results into
/// pre-sized slots indexed by i and aggregate them after the return, so
/// nothing depends on which worker ran which index. An index that throws
/// does not stop the others; once every index has run, the exception of
/// the lowest throwing index is rethrown.
inline void parallel_for(std::size_t n, int threads,
                         const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::size_t workers = threads > 0 ? static_cast<std::size_t>(threads)
                                    : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, n);
  WorkQueue<std::size_t> queue;
  for (std::size_t i = 0; i < n; ++i) queue.push(i);
  queue.close();
  std::vector<std::exception_ptr> errors(n);
  auto worker = [&] {
    std::size_t i = 0;
    while (queue.pop(i)) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  } catch (...) {
    // The queue is closed, so the workers already started drain it.
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace rupam
