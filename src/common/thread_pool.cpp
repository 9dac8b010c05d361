#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace densevlc {
namespace {

/// True while this thread executes a chunk; reentrant run_chunks calls
/// then fall back to inline serial execution instead of deadlocking on
/// the (already busy) pool.
thread_local bool t_in_chunk = false;

/// Save/restore, not set/clear: the inline (reentrant) path of
/// run_chunks opens its own scope, and an unconditional reset would
/// mark the thread idle while it is still inside the outer chunk — the
/// next nested call would then enqueue on the busy pool and deadlock
/// against its own batch.
struct ChunkScope {
  ChunkScope() : prev_{t_in_chunk} { t_in_chunk = true; }
  ~ChunkScope() { t_in_chunk = prev_; }

 private:
  bool prev_;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_{num_threads == 0 ? 1 : num_threads} {
  workers_.reserve(num_threads_ - 1);
  for (std::size_t t = 0; t + 1 < num_threads_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mu_};
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::drain_current_job(std::unique_lock<std::mutex>& lock) {
  while (job_next_ < job_total_) {
    const std::size_t c = job_next_++;
    const auto* fn = job_;
    lock.unlock();
    {
      ChunkScope scope;
      try {
        (*fn)(c);
      } catch (...) {
        lock.lock();
        if (!job_error_) job_error_ = std::current_exception();
        --job_unfinished_;
        if (job_unfinished_ == 0) cv_done_.notify_all();
        continue;
      }
    }
    lock.lock();
    --job_unfinished_;
    if (job_unfinished_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::run_chunks(std::size_t num_chunks,
                            const std::function<void(std::size_t)>& chunk_fn) {
  if (num_chunks == 0) return;
  if (num_threads_ <= 1 || num_chunks == 1 || t_in_chunk) {
    ChunkScope scope;
    for (std::size_t c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }

  std::unique_lock<std::mutex> lock{mu_};
  // Serialize concurrent top-level batches.
  cv_done_.wait(lock, [this] { return job_ == nullptr; });
  job_ = &chunk_fn;
  job_total_ = num_chunks;
  job_next_ = 0;
  job_unfinished_ = num_chunks;
  job_error_ = nullptr;
  cv_work_.notify_all();

  drain_current_job(lock);
  cv_done_.wait(lock, [this] { return job_unfinished_ == 0; });

  const std::exception_ptr error = job_error_;
  job_ = nullptr;
  job_error_ = nullptr;
  cv_done_.notify_all();  // wake callers queued on job_ == nullptr
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock{mu_};
  for (;;) {
    cv_work_.wait(lock, [this] {
      return stop_ || (job_ != nullptr && job_next_ < job_total_);
    });
    if (stop_) return;
    drain_current_job(lock);
  }
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

/// Threads beyond kMaxChunks could never claim a chunk.
std::size_t capped(std::size_t num_threads) {
  return std::min(num_threads, detail::kMaxChunks);
}

/// DENSEVLC_THREADS when it is a whole positive decimal (capped), else the
/// capped hardware default; a rejected value gets one line on stderr.
std::size_t default_threads() {
  const std::size_t fallback = capped(hardware_threads());
  const char* env = std::getenv("DENSEVLC_THREADS");
  if (env == nullptr) return fallback;
  std::size_t parsed = 0;  // saturates at kMaxChunks: no overflow
  for (const char* c = env; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') {
      parsed = 0;
      break;
    }
    parsed = capped(parsed * 10 + static_cast<std::size_t>(*c - '0'));
  }
  if (parsed > 0) return parsed;
  std::fprintf(stderr,
               "densevlc: ignoring DENSEVLC_THREADS=\"%s\" (not a positive "
               "whole number); using %zu threads\n",
               env, fallback);
  return fallback;
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mu

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock{g_pool_mu};
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_threads());
  return *g_pool;
}

void set_global_threads(std::size_t num_threads) {
  std::lock_guard<std::mutex> lock{g_pool_mu};
  g_pool = std::make_unique<ThreadPool>(
      num_threads == 0 ? default_threads() : capped(num_threads));
}

std::size_t global_threads() { return global_pool().num_threads(); }

}  // namespace densevlc
