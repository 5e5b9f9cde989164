#ifndef TUD_UTIL_BUDGET_H_
#define TUD_UTIL_BUDGET_H_

/// Resource governance for query execution: a QueryBudget carries a
/// wall-clock deadline, a table-cell cap (the unit every engine's
/// dominant cost is measured in: junction-tree message cells, BDD
/// nodes, exhaustive valuations, Monte-Carlo samples), a sample cap,
/// and an optional cooperative CancelToken. Engines check the budget at
/// bag / iteration granularity through a BudgetMeter and return a
/// structured EngineStatus instead of aborting, so one adversarial
/// query can neither OOM nor stall a serving process.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "util/fault_injection.h"

namespace tud {

/// Outcome of a governed operation. kOk means the result value is the
/// exact (or engine-usual approximate) answer; everything else means
/// the value is not trustworthy unless the engine says otherwise
/// (AutoEngine degrades to a coarser engine and reports kOk with an
/// honest error_bound instead of surfacing the trip).
enum class EngineStatus : uint8_t {
  kOk = 0,
  kDeadlineExceeded,   // wall-clock deadline passed mid-execution
  kResourceExhausted,  // table-cell / node / sample cap exceeded
  kCancelled,          // CancelToken fired (or a forced-cancel fault)
  kInvalidArgument,    // malformed request: bad root, unknown event, ...
  kRejected,           // shed by serving-layer admission control
  kIoError,            // persistence failure: write/fsync error, checksum
                       // mismatch, unreadable WAL/checkpoint
};

const char* EngineStatusName(EngineStatus status);

/// Cooperative cancellation flag. The requester keeps the token and
/// calls Cancel(); governed engines poll it at bag/iteration
/// granularity. Thread-safe; cancelling twice is fine.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resource limits for one query. Default-constructed budgets are
/// unlimited, so governed paths cost nothing to callers that never
/// asked for governance. Caps of 0 mean "no cap".
struct QueryBudget {
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  uint64_t max_table_cells = 0;
  uint32_t max_samples = 0;
  const CancelToken* cancel = nullptr;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
  bool unlimited() const {
    return !has_deadline() && max_table_cells == 0 && max_samples == 0 &&
           cancel == nullptr;
  }
  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }
  bool past_deadline() const {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline;
  }

  /// Convenience: a budget whose deadline is `ms` from now.
  static QueryBudget WithDeadlineMs(double ms) {
    QueryBudget budget;
    budget.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
    return budget;
  }
};

/// Per-execution budget accountant. Charge() is the hot-path check:
/// cell accounting and the cancel poll run every call, but the
/// steady_clock read (the expensive part) is amortised — it only
/// happens every kCellsPerClockCheck charged cells, so bag-granularity
/// checks stay under the 2% overhead bar on small-bag plans. Every
/// engine runs its one execution path through a meter, so an unlimited
/// budget (the default) is decided once, in the constructor: Charge()
/// is then a single predictable early return, and nothing — not even
/// the fault harness's forced-cancel point, which models a governed
/// query's cancellation — can trip it.
class BudgetMeter {
 public:
  explicit BudgetMeter(const QueryBudget& budget)
      : budget_(budget), unlimited_(budget.unlimited()) {}
  /// A meter over an unlimited budget: the budget-free callers of a
  /// governed body.
  BudgetMeter() : BudgetMeter(Unlimited()) {}

  /// Accounts `cells` units of work; returns kOk or the tripped status.
  EngineStatus Charge(uint64_t cells) {
    if (unlimited_) return EngineStatus::kOk;
    cells_ += cells;
    if (budget_.max_table_cells != 0 && cells_ > budget_.max_table_cells) {
      return EngineStatus::kResourceExhausted;
    }
    if (budget_.cancelled() || fault::ShouldForceCancel()) {
      return EngineStatus::kCancelled;
    }
    if (budget_.has_deadline() && cells_ >= next_clock_at_) {
      next_clock_at_ = cells_ + kCellsPerClockCheck;
      if (std::chrono::steady_clock::now() >= budget_.deadline) {
        return EngineStatus::kDeadlineExceeded;
      }
    }
    return EngineStatus::kOk;
  }

  /// Forces the next Charge() to read the clock (used at coarse
  /// boundaries like "one conditioning branch done").
  EngineStatus CheckNow() {
    next_clock_at_ = 0;
    return Charge(0);
  }

  const QueryBudget& budget() const { return budget_; }

 private:
  // ~8k cells between clock reads: at the <1ns/cell pace of the flat
  // junction-tree kernels this bounds deadline-detection slack to a few
  // microseconds, far inside the "one bag's slack" contract.
  static constexpr uint64_t kCellsPerClockCheck = 8192;

  static const QueryBudget& Unlimited() {
    static const QueryBudget unlimited;
    return unlimited;
  }

  const QueryBudget& budget_;
  const bool unlimited_;
  uint64_t cells_ = 0;
  uint64_t next_clock_at_ = 0;
};

}  // namespace tud

#endif  // TUD_UTIL_BUDGET_H_
