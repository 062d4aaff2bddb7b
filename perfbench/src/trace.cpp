#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    std::uint64_t request_id, std::uint64_t id) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0) id = ++last_id_;
  spans_.push_back({name, start, end, id, parent, request_id});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<std::pair<std::string, double>> Tracer::self_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children grouped by parent, each list merged into covered time
  // clipped to the parent's interval.
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> parts;
      for (const SpanRecord* child : it->second) {
        const auto lo = std::max(child->start, span.start);
        const auto hi = std::min(child->end, span.end);
        if (lo < hi) parts.emplace_back(lo, hi);
      }
      std::sort(parts.begin(), parts.end());
      Clock::time_point cursor = span.start;
      for (const auto& [lo, hi] : parts) {
        const auto from = std::max(lo, cursor);
        if (from < hi) {
          covered += seconds_between(from, hi);
          cursor = hi;
        }
      }
    }
    self[span.name] += (seconds_between(span.start, span.end) - covered) * 1e3;
  }
  return {self.begin(), self.end()};
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (const SpanRecord& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request_id),
                 seconds_between(origin, span.start) * 1e6,
                 seconds_between(origin, span.end) * 1e6);
  }
  return std::fclose(file) == 0;
}

Span::Span(const char* name, std::uint64_t parent, std::uint64_t request_id)
    : name_(name),
      parent_(parent),
      request_id_(request_id),
      id_(Tracer::instance().next_id()),
      start_(id_ != 0 ? Clock::now() : Clock::time_point{}) {}

Span::~Span() {
  if (id_ == 0) return;
  Tracer::instance().record(name_, start_, Clock::now(), parent_, request_id_,
                            id_);
}

}  // namespace perfbench
