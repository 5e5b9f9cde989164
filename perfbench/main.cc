// The benchmark runner binary: parses the options run.py passes on,
// runs one workload, and prints the workload parameters and then, as
// the last line, the result object. Exit code 0 only when every
// operation succeeded and every answer passed its correctness gate.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--corrupt-reference 1]

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "util/rng.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json (selftest.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"}, {"p50_us", "us"},   {"p90_us", "us"},
    {"setup_s", "s"},     {"heap_mb", "MB"},
};

// Must match "per_layer" in BENCHMARK.json. A layer a workload does not
// exercise reports 0 (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"relational.open_us", "us"},
    {"prxml.to_tree_us", "us"},
    {"treedec.decompose_us", "us"},
    {"treedec.width", "count"},
    {"queries.lineage_us", "us"},
    {"queries.lineage_gates", "count"},
    {"queries.lineage_rerun_us", "us"},
    {"inference.analyze_us", "us"},
    {"inference.order_us", "us"},
    {"inference.lower_us", "us"},
    {"inference.execute_us", "us"},
    {"inference.cells", "count"},
    {"inference.ns_per_cell", "ns"},
    {"inference.plan_width", "count"},
    {"inference.plan_bags", "count"},
    {"inference.plan_builds", "count"},
    {"inference.plan_hit_ratio", "ratio"},
    {"inference.delta_us", "us"},
    {"inference.delta_bags", "count"},
    {"inference.delta_share", "ratio"},
    {"inference.governed_overhead_pct", "%"},
    {"serving.sojourn_us", "us"},
    {"serving.queue_wait_us", "us"},
    {"serving.open_p50_us", "us"},
    {"serving.open_p90_us", "us"},
    {"serving.gen_late_us", "us"},
    {"serving.max_backlog", "count"},
    {"serving.shed", "count"},
    {"serving.failed_tasks", "count"},
    {"incremental.update_us", "us"},
    {"incremental.insert_us", "us"},
    {"incremental.delete_us", "us"},
    {"incremental.insert_p50_us", "us"},
    {"incremental.repairs", "count"},
    {"incremental.rebuilds", "count"},
    {"incremental.plans_invalidated", "count"},
    {"persist.wal_bytes_per_op", "bytes"},
    {"persist.checkpoint_us", "us"},
    {"persist.replay_us_per_record", "us"},
    {"persist.recover_s", "s"},
    {"automata.compile_us", "us"},
    {"automata.states", "count"},
    {"automata.provenance_us", "us"},
    {"trace.untraced_p50_us", "us"},
    {"trace.traced_p50_us", "us"},
    {"trace.overhead_us", "us"},
    {"trace.other_us", "us"},
};

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <adhoc-cold|serve-zipf|"
               "update-mix|tree-automaton> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--corrupt-reference 1]\n");
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--workdir") {
      options->workdir = value;
    } else if (key == "--corrupt-reference") {
      options->corrupt_reference = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

/// Host speed: millions of steps per second of a fixed integer loop,
/// the median of five 10 ms samples. Recorded beside the results at the
/// start and end of a run, it shows how fast the machine itself ran: on
/// shared virtual machines it drifts by up to 2x over minutes, which no
/// amount of repetition inside one run removes.
double HostSpeedProbe() {
  std::vector<double> samples;
  uint64_t x = 1;
  for (int s = 0; s < 5; ++s) {
    const auto start = Clock::now();
    uint64_t steps = 0;
    while (SecondsSince(start) < 0.01) {
      for (int i = 0; i < 1000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      steps += 1000;
    }
    samples.push_back(static_cast<double>(steps) / SecondsSince(start) / 1e6);
  }
  volatile uint64_t sink = x;  // Keeps the loop from being folded away.
  (void)sink;
  return Median(samples);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

size_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

void Report::SampleHeap(size_t baseline) {
  heap_mb_.push_back((static_cast<double>(HeapBytes()) -
                      static_cast<double>(baseline)) /
                     (1024.0 * 1024.0));
}

void Report::Param(const std::string& key, double value) {
  params_[key] = JsonNumber(value);
}

void Report::Miss(const std::string& what) {
  ++failed_;
  if (misses_printed_++ < 8) std::fprintf(stderr, "MISS: %s\n", what.c_str());
}

void Tracer::Span(const std::string& layer, double micros) {
  samples_[layer].push_back(micros);
  op_[layer] += micros;
}

double Tracer::Median(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : perfbench::Median(it->second);
}

double Tracer::OpPathMedianSum() const {
  std::map<std::string, std::vector<double>> per_layer;
  for (const auto& op : ops_)
    for (const auto& [layer, micros] : op) per_layer[layer];
  for (const auto& op : ops_) {
    for (auto& [layer, values] : per_layer) {
      auto it = op.find(layer);
      values.push_back(it == op.end() ? 0 : it->second);
    }
  }
  double sum = 0;
  for (auto& [layer, values] : per_layer) sum += perfbench::Median(values);
  return sum;
}

bool RoundClock::Next() {
  ++round_;
  if (round_ == 0) return true;
  if (round_ == 1) start_ = Clock::now();
  const double elapsed = SecondsSince(start_);
  const int done = round_ - 1;  // Timed rounds finished so far.
  if (!trace_) return done < min_rounds_ || elapsed < seconds_;
  if (!traced_ && done >= min_rounds_ && elapsed >= seconds_ / 2) {
    traced_ = true;
    traced_from_ = done;
  }
  return !traced_ || done - traced_from_ < min_rounds_ || elapsed < seconds_;
}

void ReportTraceSummary(const std::vector<double>& untraced_op_us,
                        const std::vector<double>& traced_op_us,
                        const Tracer& tracer, Report& report) {
  const double untraced = Median(untraced_op_us);
  const double traced = Median(traced_op_us);
  report.Metric("trace.untraced_p50_us", untraced);
  report.Metric("trace.traced_p50_us", traced);
  report.Metric("trace.overhead_us", traced - untraced);
  report.Metric("trace.other_us", untraced - tracer.OpPathMedianSum());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  // splitmix64 over (seed, purpose): independent streams per purpose.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::pair<uint32_t, uint32_t>> ShuffledLadderPairs(
    uint32_t rungs, uint64_t seed) {
  // Vertex 2i / 2i+1 is the left / right rail at level i; rails lead
  // upwards, rungs lead left to right. So a left vertex reaches both
  // rails at its level and above, a right vertex only the right rail.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t a = 0; a < rungs; ++a) {
    for (uint32_t b = a; b < rungs; ++b) {
      if (b > a) pairs.emplace_back(2 * a, 2 * b);
      pairs.emplace_back(2 * a, 2 * b + 1);
      if (b > a) pairs.emplace_back(2 * a + 1, 2 * b + 1);
    }
  }
  tud::Rng rng(seed);
  for (size_t i = pairs.size(); i > 1; --i)
    std::swap(pairs[i - 1], pairs[rng.UniformInt(i)]);
  return pairs;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    Usage();
    return 2;
  }

  Report report;
  report.Param("host_speed_start", HostSpeedProbe());
  if (options.workload == "adhoc-cold") {
    RunAdhocCold(options, report);
  } else if (options.workload == "serve-zipf") {
    RunServeZipf(options, report);
  } else if (options.workload == "update-mix") {
    RunUpdateMix(options, report);
  } else if (options.workload == "tree-automaton") {
    RunTreeAutomaton(options, report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    Usage();
    return 2;
  }
  if (!options.trace && !report.heap_mb().empty()) {
    report.Metric("heap_mb", Sum(report.heap_mb()) /
                                 static_cast<double>(report.heap_mb().size()));
  }

  // Exactly the declared metric list of the mode, each one finite.
  std::string metrics;
  auto emit = [&](const MetricDef& def, double value) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", def.name);
      return false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(def.name) + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + def.unit + "\"}";
    return true;
  };
  const auto& recorded = report.metrics();
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) {
      auto it = recorded.find(def.name);
      if (!emit(def, it == recorded.end() ? 0 : it->second)) return 3;
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      auto it = recorded.find(def.name);
      if (it == recorded.end()) {
        std::fprintf(stderr, "workload did not report %s\n", def.name);
        return 3;
      }
      if (!emit(def, it->second)) return 3;
    }
  }

  std::string params;
  report.Param("host_speed_end", HostSpeedProbe());
  report.Param("seed", static_cast<double>(options.seed));
  report.Param("seconds", options.seconds);
  report.Param("trace", options.trace ? 1 : 0);
  report.Param("nproc", std::thread::hardware_concurrency());
  report.Param("build_type", PERFBENCH_BUILD_TYPE);
  report.Param("compiler", PERFBENCH_COMPILER);
  for (const auto& [key, value] : report.params()) {
    if (!params.empty()) params += ", ";
    params += "\"" + key + "\": " + value;
  }
  std::printf("{\"perfbench_params\": {%s}}\n", params.c_str());

  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted()),
      static_cast<unsigned long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
