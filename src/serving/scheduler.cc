#include "serving/scheduler.h"

#include <utility>

#include "util/check.h"

namespace tud {
namespace serving {

namespace {

/// Which scheduler's worker (if any) the current thread is — lets
/// Submit skip backpressure on workers, and CurrentScratch find the
/// worker's arena.
thread_local TaskScheduler* tls_scheduler = nullptr;
thread_local PlanScratch* tls_scratch = nullptr;

}  // namespace

TaskScheduler::TaskScheduler() : TaskScheduler(Options()) {}

TaskScheduler::TaskScheduler(const Options& options)
    : queue_capacity_(options.queue_capacity) {
  unsigned n = options.num_threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  TUD_CHECK(queue_capacity_ > 0) << "TaskScheduler: queue_capacity must be > 0";
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

TaskScheduler::~TaskScheduler() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool TaskScheduler::Submit(Task task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (tls_scheduler != this) {
      not_full_.wait(lock,
                     [&] { return queue_.size() < queue_capacity_ || stop_; });
    }
    if (stop_) return false;
    // Count the task before publishing it: workers pop under this same
    // lock, so the increment happens-before the task's decrement and
    // Drain() cannot return while an accepted task is in flight.
    outstanding_.fetch_add(1, std::memory_order_seq_cst);
    queue_.push_back(std::move(task));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  not_empty_.notify_one();
  return true;
}

void TaskScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] {
    return outstanding_.load(std::memory_order_seq_cst) == 0;
  });
}

TaskScheduler::Stats TaskScheduler::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  return s;
}

PlanScratch* TaskScheduler::CurrentScratch() { return tls_scratch; }

void TaskScheduler::RunTask(Task& task) {
  // Per-task exception containment: a throwing task (bad_alloc under
  // memory pressure, a bug in a caller's lambda) fails *its own* work —
  // the task is expected to route the error into its promise — and must
  // never take the worker thread down with it (an escaped exception
  // here would std::terminate the process and strand every queued
  // future). The task is still destroyed and outstanding_ still
  // decremented, so Drain() and shutdown cannot hang on a failed task.
  try {
    task();
    executed_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  task = nullptr;  // Release the captures before Drain() can return.
  if (outstanding_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // Taking mu_ orders this decrement against a Drain() that has
    // checked its predicate but not yet started waiting.
    { std::lock_guard<std::mutex> lock(mu_); }
    idle_.notify_all();
  }
}

void TaskScheduler::WorkerLoop() {
  PlanScratch scratch;
  tls_scheduler = this;
  tls_scratch = &scratch;
  while (true) {
    Task task;
    bool half_empty = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return !queue_.empty() || stop_; });
      if (queue_.empty()) break;  // Stopped, and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
      // Wake blocked submitters only once the queue is half empty, so a
      // flood held at capacity costs one wakeup per capacity/2 tasks,
      // not one per task. No waiter is missed: each waits at a full
      // queue, and only pops shrink it, one task at a time, so some pop
      // lands on exactly capacity/2 after it.
      half_empty = queue_.size() == queue_capacity_ / 2;
    }
    if (half_empty) not_full_.notify_all();
    RunTask(task);
  }
  tls_scheduler = nullptr;
  tls_scratch = nullptr;
}

}  // namespace serving
}  // namespace tud
