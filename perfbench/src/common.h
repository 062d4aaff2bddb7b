// Shared plumbing of the benchmark program: run options, the metric
// list a run prints, timing summaries (median plus the highest
// percentile that still has at least ten samples beyond it), seeded
// input generation, output digests and process memory.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "man/util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the working directory (plan artifacts,
  /// trace files); created by main(), removed at exit except traces.
  std::string out_dir;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the correctness tally and
/// the metrics of this mode (end-to-end untraced, per-layer traced).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Bit-identity mismatches (each also counted in `failed`).
  std::uint64_t mismatches = 0;
  std::vector<Metric> metrics;
  /// Metrics printed in the run report only: the ones defined on one
  /// workload alone (BENCHMARK.json lists what every run prints).
  std::vector<Metric> reported;
  /// Hex digest of the workload's outputs on its seeded inputs.
  std::string digest;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void report(std::string name, double value, std::string unit) {
    reported.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Median and tail of a set of timings.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double p99 = 0.0;
  /// Highest of p50/p90/p99/p99.9 with >= 10 samples beyond it.
  double tail_percentile = 50.0;
  double tail = 0.0;
};

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] Summary summarize(const std::vector<double>& values);

/// "median 1.23 ms, p99 4.56 ms (n=2000)" for the run report.
[[nodiscard]] std::string describe(const Summary& summary,
                                   const std::string& unit);

/// Median of a small sample (repeated set-ups, probe repetitions).
[[nodiscard]] double median(std::vector<double> values);

/// Set-ups timed per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 5;

/// `values` pixels in [0, 1) from `rng`.
[[nodiscard]] std::vector<float> make_pixels(man::util::Rng& rng,
                                             std::size_t values);

/// FNV-1a over a byte range, chained through `state`.
void digest_bytes(std::uint64_t& state, const void* data, std::size_t size);
[[nodiscard]] std::string hex_digest(std::uint64_t state);
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Worker count the workloads use: 4, clamped to the online CPUs.
[[nodiscard]] int bench_workers();

/// Prints one "metric <name> = <value> <unit>" report line.
void report_metric(const Metric& metric);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
