#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "src/obs/trace.hpp"

namespace hpcp {

namespace {
/// Set for the lifetime of every pool worker thread; parallel_for reads it
/// to detect nested fan-out (which must run inline — see the header note).
thread_local bool t_in_pool_worker = false;
}  // namespace

bool in_pool_worker() noexcept { return t_in_pool_worker; }

std::size_t parallel_width(const ThreadPool* pool) {
  if (t_in_pool_worker) return 1;
  return pool != nullptr ? pool->size() : global_thread_pool().size();
}

ThreadPool::ThreadPool(std::size_t threads, std::string worker_name_prefix) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // Workers name themselves in the tracer, possibly after the program has
  // started exiting. Constructing it here, before any worker runs, makes
  // it outlive this pool even when the pool is a function-local static
  // (statics are destroyed in reverse order of construction).
  (void)obs::Tracer::instance();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i, worker_name_prefix] {
      // Stable per-thread ids + names make every span recorded from inside
      // a pooled task land on a labelled lane of the exported trace.
      obs::set_current_thread_name(worker_name_prefix + "-" +
                                   std::to_string(i));
      t_in_pool_worker = true;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  ThreadPool* pool) {
  if (n == 0) return;
  // A fan-out from inside a pooled task runs inline: with no work stealing,
  // blocking a worker on futures that only workers can run would deadlock
  // once every worker is itself inside a nested section.
  if (in_pool_worker()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  if (pool == nullptr) pool = &global_thread_pool();
  const obs::Span span("thread_pool.parallel_for");
  if (n == 1 || pool->size() == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Dynamic scheduling over a shared counter: items can be wildly uneven
  // (e.g. tree depths), so static blocking would leave workers idle.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const std::size_t chunks = std::min(n, pool->size());
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(pool->submit([&] {
      // One span per worker chunk (not per item): visible scheduling without
      // per-item cost. Item-level spans are the mapped function's business.
      const obs::Span chunk_span("thread_pool.chunk");
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n || failed.load(std::memory_order_relaxed)) return;
        try {
          body(i);
        } catch (...) {
          const std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace hpcp
