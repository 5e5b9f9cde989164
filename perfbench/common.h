#ifndef TUD_PERFBENCH_COMMON_H_
#define TUD_PERFBENCH_COMMON_H_

// Shared pieces of the benchmark runner: command-line options, the
// report every workload fills (end-to-end or per-layer metrics, the
// attempted/failed counts and the workload parameters), order
// statistics, and the span recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: perturbs one reference answer so the correctness
  /// gate must report a miss.
  bool corrupt_reference = false;
  /// Scratch directory for workloads that write files (update-mix).
  std::string workdir = ".bench_build/perfbench-work";
};

inline double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

/// In-use bytes of every malloc arena plus mmap-served blocks.
size_t HeapBytes();

/// Order statistic with linear interpolation between closest ranks;
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}


/// What one run reports. Workloads add metrics by name; the runner
/// checks the names against the declared metric lists before printing.
class Report {
 public:
  void Param(const std::string& key, const std::string& value) {
    params_[key] = "\"" + value + "\"";
  }
  void Param(const std::string& key, double value);

  void Metric(const std::string& name, double value) {
    metrics_[name] = value;
  }

  /// One operation attempted; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A correctness-check miss on an operation already attempted.
  void Miss(const std::string& what);

  /// Samples the heap the workload's state holds: the allocator's
  /// in-use bytes now minus `baseline` (HeapBytes() taken before the
  /// state was set up). Workloads sample where their state is largest,
  /// at the end of a round's operations; heap_mb is the mean sample (a
  /// median would jump between the values of individual rounds).
  void SampleHeap(size_t baseline);
  const std::vector<double>& heap_mb() const { return heap_mb_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::map<std::string, std::string>& params() const { return params_; }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> params_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t misses_printed_ = 0;
  std::vector<double> heap_mb_;
};

/// Span recorder of the traced run. Spans are timed by the workload
/// around calls into one layer's public entry points; within an
/// operation (BeginOp..EndOp) each span also counts towards that
/// operation's path, from which the `other` residual is computed. All
/// spans stay in memory until the run ends.
class Tracer {
 public:
  void Span(const std::string& layer, double micros);
  /// A count or ratio sampled once per call, operation or round.
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  void BeginOp() { op_.clear(); }
  void EndOp() { ops_.push_back(std::move(op_)); }

  /// Median of the layer's spans (or of a sample); 0 if never recorded.
  double Median(const std::string& name) const;
  /// Σ over layers seen on operation paths of the median per-operation
  /// time in that layer (0 for operations that skipped it).
  double OpPathMedianSum() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> op_;
  std::vector<std::map<std::string, double>> ops_;
};

/// Round schedule of the round-based workloads. Round 0 is an untimed
/// warm-up; timed rounds follow until `seconds` have passed since the
/// first of them began, and at least `min_rounds` ran. In the traced run
/// the first half of the budget runs untraced (giving the untraced
/// operation median) and the second half traced, each with at least
/// `min_rounds` rounds.
class RoundClock {
 public:
  RoundClock(const Options& options, int min_rounds)
      : seconds_(options.seconds),
        trace_(options.trace),
        min_rounds_(min_rounds) {}

  /// Advances to the next round; false once the budget is spent.
  bool Next();
  bool warmup() const { return round_ == 0; }
  bool traced() const { return traced_; }

 private:
  double seconds_;
  bool trace_;
  int min_rounds_;
  int round_ = -1;
  int traced_from_ = 0;
  bool traced_ = false;
  Clock::time_point start_;
};

/// Adds the traced-run summary: traced and untraced operation medians,
/// their gap (the tracing overhead) and the `other` residual (untraced
/// median minus the per-layer medians along the operation path).
void ReportTraceSummary(const std::vector<double>& untraced_op_us,
                        const std::vector<double>& traced_op_us,
                        const Tracer& tracer, Report& report);

/// Deterministic per-purpose seeds derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

/// Every (source, target) pair of a `rungs`-level ladder (see
/// workloads::LadderTid) with a directed path from source to target,
/// shuffled by `seed`. Unreachable pairs are left out: their lineage
/// folds to a constant and would make a trivially cheap query.
std::vector<std::pair<uint32_t, uint32_t>> ShuffledLadderPairs(
    uint32_t rungs, uint64_t seed);

// The workloads. Each fills `report` and returns normally; a failed
// correctness gate shows as report.failed() > 0.
void RunAdhocCold(const Options& options, Report& report);
void RunServeZipf(const Options& options, Report& report);
void RunUpdateMix(const Options& options, Report& report);
void RunTreeAutomaton(const Options& options, Report& report);

}  // namespace perfbench

#endif  // TUD_PERFBENCH_COMMON_H_
