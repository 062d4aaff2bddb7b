// Benchmark program of the man engine:
//
//   man_perfbench --workload <replay-mlp|replay-cnn|serve-http|serve-overload>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then as its last line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// 1 when any output fails its bit-identity check, 2 on bad usage or
// an error before a result exists. Scratch files go under
// .bench_out/ in the working directory; traced runs leave their
// spans in .bench_out/traces/.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "man_perfbench: %s\nusage: man_perfbench --workload "
               "<replay-mlp|replay-cnn|serve-http|serve-overload> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

RunResult run(const Options& options) {
  if (options.workload == "replay-mlp") {
    return perfbench::run_replay(options, man::apps::AppId::kSvhnMlp8);
  }
  if (options.workload == "replay-cnn") {
    return perfbench::run_replay(options, man::apps::AppId::kDigitCnn12);
  }
  if (options.workload == "serve-http") {
    return perfbench::run_serve(options, /*overload=*/false);
  }
  if (options.workload == "serve-overload") {
    return perfbench::run_serve(options, /*overload=*/true);
  }
  usage(("unknown workload " + options.workload).c_str());
}

void print_self_times(const std::string& trace_path) {
  auto& tracer = perfbench::Tracer::instance();
  std::printf("trace: %zu spans -> %s\nself time per span (ms):\n",
              tracer.size(), trace_path.c_str());
  for (const auto& [name, ms] : tracer.self_ms()) {
    std::printf("  %-28s %12.3f\n", name.c_str(), ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse(argc, argv);
  options.out_dir = ".bench_out/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(options.out_dir);

  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "man_perfbench: %s\n", error.what());
    std::filesystem::remove_all(options.out_dir);
    return 2;
  }
  std::filesystem::remove_all(options.out_dir);

  if (options.trace) {
    std::filesystem::create_directories(".bench_out/traces");
    const std::string path = ".bench_out/traces/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".jsonl";
    if (!perfbench::Tracer::instance().write(path)) {
      std::fprintf(stderr, "man_perfbench: cannot write %s\n", path.c_str());
    }
    print_self_times(path);
  }
  for (const Metric& metric : result.reported) perfbench::report_metric(metric);
  for (const Metric& metric : result.metrics) perfbench::report_metric(metric);
  const bool correct = result.mismatches == 0;
  std::printf("digest %s\nchecked %llu operations, %llu failed, %llu "
              "bit-identity mismatches\n",
              result.digest.c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.mismatches));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
