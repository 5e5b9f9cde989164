// Sustained-QPS serving benchmark: one prepared QuerySession, a
// zipfian-skewed mix over N distinct reachability lineages, served
// through ServingSession across 1..N worker threads. Emits serving/*
// rows (harness JSON, with qps / qps_per_core / threads counters) whose
// numbers the committed BENCH_automata.json quotes:
//
//   serving/direct_1thread/<spec>    sequential QuerySession::Probability
//   serving/zipf_<spec>/threads:T    ServingSession, T workers
//
// Usage: bench_serving_qps [num_queries] [output.json] [instance_spec]
//   num_queries    requests per timed run (default 20000)
//   output.json    harness-format output (default BENCH_serving_qps.json)
//   instance_spec  workload name, e.g. ladder:48 | ktree:64x2
//                  (default ladder:48)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "inference/engine.h"
#include "queries/query_session.h"
#include "serving/server.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

constexpr uint32_t kDistinctLineages = 64;
constexpr double kTheta = 0.99;  // YCSB default skew.

using clock_type = std::chrono::steady_clock;

double SecondsSince(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Distinct (source, target) endpoint pairs near the spec's canonical
/// query: 8 sources x 8 targets.
std::vector<std::pair<uint32_t, uint32_t>> EndpointGrid(
    const workloads::InstanceSpec& spec) {
  auto [source0, target0] = workloads::CanonicalEndpoints(spec);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(kDistinctLineages);
  for (uint32_t i = 0; i < kDistinctLineages; ++i) {
    uint32_t source = source0 + i / 8;
    uint32_t target = target0 - i % 8;
    pairs.emplace_back(source, std::min(target, target0));
  }
  return pairs;
}

bench::BenchResult Row(std::string name, double seconds, size_t queries,
                       unsigned threads) {
  bench::BenchResult r;
  r.name = std::move(name);
  r.iters = queries;
  r.ns_per_iter = seconds * 1e9 / static_cast<double>(queries);
  const double qps = static_cast<double>(queries) / seconds;
  r.counters = {{"qps", qps},
                {"qps_per_core", qps / threads},
                {"threads", static_cast<double>(threads)}};
  return r;
}

void PrintRow(const bench::BenchResult& r) {
  std::printf("%-44s %12.0f ns/query  %10.0f qps  %10.0f qps/core\n",
              r.name.c_str(), r.ns_per_iter, r.counters[0].second,
              r.counters[1].second);
}

int Main(int argc, char** argv) {
  const size_t num_queries =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 20000;
  const std::string out = argc > 2 ? argv[2] : "BENCH_serving_qps.json";
  const std::string spec_name = argc > 3 ? argv[3] : "ladder:48";

  auto spec = workloads::ParseInstanceSpec(spec_name);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown instance spec: %s\n", spec_name.c_str());
    return 1;
  }

  // Prepare phase (single-threaded, untimed): instance, session, the
  // distinct lineages, and the skewed request mix over them.
  TidInstance tid = workloads::MakeInstance(*spec);
  QuerySession session = QuerySession::FromCInstance(
      tid.ToPcInstance(),
      std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));
  std::vector<GateId> lineages;
  for (auto [source, target] : EndpointGrid(*spec))
    lineages.push_back(session.ReachabilityLineage(0, source, target));
  std::vector<uint32_t> mix = workloads::ZipfianQueryMix(
      kDistinctLineages, num_queries, kTheta, /*seed=*/1234);

  // Warm every plan and compute the reference answers once, so every
  // timed run below measures only the steady-state numeric pass.
  std::vector<double> expected(lineages.size());
  for (size_t i = 0; i < lineages.size(); ++i)
    expected[i] = session.Probability(lineages[i]).value;

  std::vector<bench::BenchResult> results;

  // --- Baseline: the sequential hot loop serving code must not regress
  // (same cached-plan engine, no scheduler in the way).
  {
    const auto start = clock_type::now();
    double sink = 0;
    for (uint32_t q : mix) sink += session.Probability(lineages[q]).value;
    const double seconds = SecondsSince(start);
    if (!std::isfinite(sink)) std::abort();  // Keep the loop observable.
    results.push_back(Row("serving/direct_1thread/" + spec->Name(), seconds,
                          mix.size(), 1));
    PrintRow(results.back());
  }

  // --- The serving curve: same mix through ServingSession at 1..N
  // workers. Submission happens from this (external) thread, as in a
  // real frontend; workers execute from the shared plan cache.
  std::vector<unsigned> thread_counts = {1, 2, 4};
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && std::find(thread_counts.begin(), thread_counts.end(), hw) ==
                    thread_counts.end())
    thread_counts.push_back(hw);
  std::sort(thread_counts.begin(), thread_counts.end());

  for (unsigned threads : thread_counts) {
    serving::ServingOptions options;
    options.num_threads = threads;
    serving::ServingSession serving = serving::ServingSession::Over(session, options);
    for (GateId lineage : lineages) serving.Prewarm(lineage);

    std::vector<std::future<EngineResult>> futures(mix.size());
    const auto start = clock_type::now();
    for (size_t q = 0; q < mix.size(); ++q)
      futures[q] = serving.Submit(lineages[mix[q]]);
    serving.Drain();
    const double seconds = SecondsSince(start);

    for (size_t q = 0; q < mix.size(); ++q) {
      const double value = futures[q].get().value;
      if (value != expected[mix[q]]) {
        std::fprintf(stderr, "MISMATCH at query %zu: %.17g != %.17g\n", q,
                     value, expected[mix[q]]);
        return 1;
      }
    }
    results.push_back(Row("serving/zipf_" + spec->Name() +
                              "/threads:" + std::to_string(threads),
                          seconds, mix.size(), threads));
    PrintRow(results.back());
  }

  if (!bench::Harness::WriteJson(results, out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace tud

int main(int argc, char** argv) { return tud::Main(argc, argv); }
