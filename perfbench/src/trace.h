// Bench-side tracing: spans recorded around the benchmark's own calls
// into the library's public functions (the library itself is not
// instrumented). Spans are kept in memory while the run measures and
// written out when it ends; self time per span name is the span's
// duration minus the part of it its child spans cover.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< string literal
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root
  std::uint64_t request_id = 0;  ///< 0 = not tied to one request
};

/// Process-wide span store. Disabled (the default) it records
/// nothing and every call is a branch on one flag.
class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Reserves a span id (0 when disabled).
  std::uint64_t next_id();
  /// Records a finished span. `id` from next_id(), or 0 to allocate.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t parent = 0, std::uint64_t request_id = 0,
              std::uint64_t id = 0);

  /// Self time per span name, in ms, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms() const;
  /// Writes every span as one JSON object per line; returns false
  /// when the file cannot be written.
  bool write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t last_id_ = 0;
};

/// RAII span: opened on construction, recorded on destruction. Nests
/// under `parent` (another Span's id(), or 0).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t parent = 0,
                std::uint64_t request_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t request_id_;
  std::uint64_t id_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
