#ifndef TUD_SERVING_SCHEDULER_H_
#define TUD_SERVING_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "inference/junction_tree.h"

namespace tud {
namespace serving {

/// The execution substrate of the serving layer: N worker threads over
/// one bounded FIFO queue. The queue's capacity is the backpressure
/// bound: Submit from outside the pool blocks when serving cannot keep
/// up instead of queueing without limit, and resumes once the workers
/// have drained the queue to half. Submit from a worker never blocks —
/// workers are the queue's only consumers, so a worker waiting for room
/// could deadlock the pool.
///
/// Each worker owns a PlanScratch arena, reachable from inside a task
/// via CurrentScratch(): a JunctionTreePlan::Execute per query reuses
/// the worker's grow-only buffer, so steady-state serving performs no
/// allocation per query.
class TaskScheduler {
 public:
  using Task = std::function<void()>;

  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    unsigned num_threads = 0;
    /// Queue bound: Submit from outside the pool blocks once this many
    /// tasks are queued and unclaimed, until half of them are claimed
    /// (backpressure).
    size_t queue_capacity = 4096;
  };

  struct Stats {
    uint64_t submitted = 0;  ///< Tasks accepted.
    uint64_t executed = 0;   ///< Tasks run to completion.
    uint64_t failed = 0;     ///< Tasks that threw (contained per task:
                             ///< the worker survives, the task's own
                             ///< promise carries the error).
  };

  TaskScheduler();  ///< Default options (nested-class NSDMI rules forbid
                    ///< `= {}` as a default argument here).
  explicit TaskScheduler(const Options& options);
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;
  /// Drains outstanding tasks, then stops and joins the workers.
  ~TaskScheduler();

  /// Enqueues a task from any thread. From outside the pool it blocks
  /// at a full queue until the queue is half empty; from a worker
  /// thread it never blocks. Returns false only after shutdown has
  /// begun.
  bool Submit(Task task);

  /// Blocks until every task accepted so far has finished.
  void Drain();

  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  Stats stats() const;

  /// The calling worker thread's scratch arena, or nullptr when the
  /// caller is not a scheduler worker. Valid for the duration of the
  /// running task; tasks must not hand it to other threads.
  static PlanScratch* CurrentScratch();

 private:
  void WorkerLoop();
  void RunTask(Task& task);

  size_t queue_capacity_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;  ///< Signalled when outstanding_ hits 0.
  std::deque<Task> queue_;        ///< Guarded by mu_.
  bool stop_ = false;             ///< Guarded by mu_.

  /// Accepted and not yet finished. An atomic, not a count under mu_:
  /// finishing a task then takes no lock unless it empties the pool.
  std::atomic<uint64_t> outstanding_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> failed_{0};
};

}  // namespace serving
}  // namespace tud

#endif  // TUD_SERVING_SCHEDULER_H_
