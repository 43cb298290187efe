#include "common/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/check.h"

namespace ukc {

int ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = HardwareThreads();
  workers_.reserve(threads - 1);
  for (int w = 1; w < threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  job_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunJob(int worker) {
  const std::function<void(int, size_t)>& fn = *job_;
  const size_t count = job_count_;
  const size_t grain = job_grain_;
  for (size_t begin = next_.fetch_add(grain, std::memory_order_relaxed);
       begin < count;
       begin = next_.fetch_add(grain, std::memory_order_relaxed)) {
    const size_t end = std::min(count, begin + grain);
    for (size_t index = begin; index < end; ++index) {
      if (job_aborted_.load(std::memory_order_relaxed)) return;
      try {
        fn(worker, index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++job_exception_count_;
        if (job_exception_ == nullptr) {
          job_exception_ = std::current_exception();
        }
        job_aborted_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    RunJob(worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (++finished_workers_ == workers_.size()) job_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(int, size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline: no synchronization, identical to a plain loop. An
    // exception propagates directly — the borrowing thread IS the
    // executing thread, matching the pooled contract.
    for (size_t index = 0; index < count; ++index) fn(0, index);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    UKC_CHECK(job_ == nullptr) << "ThreadPool jobs do not nest";
    job_ = &fn;
    job_count_ = count;
    job_grain_ = std::max<size_t>(1, count / (kClaimsPerWorker * num_threads()));
    next_.store(0, std::memory_order_relaxed);
    finished_workers_ = 0;
    job_aborted_.store(false, std::memory_order_relaxed);
    job_exception_ = nullptr;
    job_exception_count_ = 0;
    ++generation_;
  }
  job_ready_.notify_all();
  RunJob(0);  // The calling thread is worker 0.
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock, [&] { return finished_workers_ == workers_.size(); });
  job_ = nullptr;
  if (job_exception_ != nullptr) {
    // Every worker has drained (the wait above), so the pool is back
    // in its idle state and stays usable after the rethrow.
    std::exception_ptr exception = job_exception_;
    const size_t exception_count = job_exception_count_;
    job_exception_ = nullptr;
    job_exception_count_ = 0;
    job_aborted_.store(false, std::memory_order_relaxed);
    if (exception_count <= 1) {
      // The common case: one worker failed. Rethrow the original so
      // the caller's catch-by-type still works.
      std::rethrow_exception(exception);
    }
    // Several workers failed in the same batch. Surface the fan-out in
    // the message — callers diagnosing "one flaky worker" vs "every
    // worker hit the same bug" need the count.
    lock.unlock();
    std::string first_message = "<non-standard exception>";
    try {
      std::rethrow_exception(exception);
    } catch (const std::exception& e) {
      first_message = e.what();
    } catch (...) {
    }
    throw std::runtime_error("ThreadPool batch failed with " +
                             std::to_string(exception_count) +
                             " worker exceptions; first: " + first_message);
  }
}

}  // namespace ukc
