#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Summary summarize(const std::vector<double>& values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  summary.median = percentile(values, 50.0);
  summary.p99 = percentile(values, 99.0);
  summary.tail_percentile = 50.0;
  summary.tail = summary.median;
  for (const double p : {90.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(values.size()) * (100.0 - p) / 100.0;
    if (beyond >= 10.0) {
      summary.tail_percentile = p;
      summary.tail = percentile(values, p);
    }
  }
  return summary;
}

std::string describe(const Summary& summary, const std::string& unit) {
  char line[160];
  std::snprintf(line, sizeof line, "median %.4g %s, p%g %.4g %s (n=%zu)",
                summary.median, unit.c_str(), summary.tail_percentile,
                summary.tail, unit.c_str(), summary.count);
  return line;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::vector<float> make_pixels(man::util::Rng& rng, std::size_t values) {
  std::vector<float> pixels(values);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  return pixels;
}

void digest_bytes(std::uint64_t& state, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= 0x100000001b3ULL;
  }
}

std::string hex_digest(std::uint64_t state) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(state));
  return text;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int bench_workers() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cpus, 1U, 4U));
}

void report_metric(const Metric& metric) {
  std::printf("metric %s = %.6g %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str());
}

}  // namespace perfbench
