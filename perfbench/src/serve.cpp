// serve-http / serve-overload: an in-process HttpServer on loopback,
// cold-started from plan artifacts, driven open-loop by one generator
// thread over pipelined keep-alive connections with Poisson arrivals
// at fixed absolute rates. Every request is timed from its intended
// send time; the generator reports how late it sent.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "man/apps/activity_energy.h"
#include "man/serve/engine_cache.h"
#include "man/serve/http/http_client.h"
#include "man/serve/http/http_server.h"
#include "man/serve/http/wire.h"
#include "man/serve/inference_server.h"
#include "man/serve/thread_pool.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using man::engine::FixedNetwork;
using man::serve::InferenceServer;
using man::serve::TieredEngine;
using man::serve::http::HttpServer;

/// The digit model's precision ladder (docs/serving.md).
constexpr const char* kDigitLadder = "asm4,asm2,exact";
/// Queue-delay SLO of every served model: the server's shed threshold
/// and the benchmark's latency limit are this one number.
constexpr std::chrono::microseconds kSlo{25'000};
constexpr std::size_t kPoolPerKind = 32;
constexpr double kWindowSeconds = 0.5;
/// Unanswered requests one generator connection may hold; arrivals
/// beyond it on every connection are dropped.
constexpr std::size_t kMaxOutstandingPerConn = 64;

/// One named open-loop rate step, in requests/s. The rates are
/// absolute (chosen on a 4-core AVX-512 Xeon), so every commit sees
/// the same traffic.
struct Step {
  const char* name;
  double rate;
};
constexpr Step kHttpLadder[] = {{"low", 500},   {"s2", 1500}, {"knee", 2500},
                                {"s4", 4000},   {"s5", 6000}, {"s6", 8000},
                                {"s7", 10500}};
constexpr Step kOverloadStep = {"over", 11000};
/// The replay workloads' traced serving probe: one low step, with an
/// SLO wide enough that a replay engine's slower samples are not shed.
constexpr Step kProbeStep = {"probe", 150};
constexpr double kProbeSeconds = 1.5;
constexpr std::chrono::microseconds kProbeSlo{250'000};

/// One request shape of the traffic mix.
struct Kind {
  std::size_t model;  ///< index into the served models
  std::size_t samples;
  bool binary;  ///< packed float32 body instead of JSON
  double weight;
};
/// Mostly 1-sample JSON, a minority of 16-sample packed requests.
const std::vector<Kind> kServeMix = {{0, 1, false, 0.60},
                                     {1, 1, false, 0.25},
                                     {0, 16, true, 0.10},
                                     {1, 16, true, 0.05}};
const std::vector<Kind> kProbeMix = {{0, 1, false, 0.9}, {0, 16, true, 0.1}};

/// A model behind the HTTP server. `tiers` names every engine a
/// response may come from (one "full" tier when untiered).
struct ServedModel {
  std::string key;
  man::apps::AppId app = man::apps::AppId::kDigitMlp8;
  TieredEngine tiers;
  bool tiered = false;
  std::unique_ptr<InferenceServer> server;

  [[nodiscard]] const FixedNetwork* tier_engine(const std::string& name) const {
    for (const auto& tier : tiers.tiers) {
      if (tier.spec.name == name) return tier.engine.get();
    }
    return nullptr;
  }
};

/// Everything one cold start brings up. Members are destroyed in
/// reverse order: HTTP front-end, then servers, then their pool.
struct ServeStack {
  std::unique_ptr<man::serve::EngineCache> cache;
  std::shared_ptr<man::serve::ThreadPool> pool;
  std::vector<ServedModel> models;
  std::unique_ptr<HttpServer> http;
  std::chrono::microseconds slo = kSlo;
};

man::serve::ServeConfig serve_config(const ServeStack& stack, bool tiered) {
  man::serve::ServeConfig config;
  config.max_batch = 64;
  config.max_wait = std::chrono::microseconds(500);
  config.workers = static_cast<int>(stack.pool->size());
  config.pool = stack.pool;
  config.queue_capacity = 2048;
  config.queue_delay_slo = stack.slo;
  if (tiered) config.qos_tiers = man::serve::parse_qos_tiers(kDigitLadder);
  return config;
}

/// Starts one InferenceServer per model and the HTTP front-end.
void start_servers(ServeStack& stack) {
  man::serve::http::HttpServerConfig http_config;
  // Deeper than a generator connection's backlog, so the server's
  // per-connection read pause never engages. A window answered wholly
  // with inline 429s never lifts that pause: the connection stalls and
  // is reaped as idle with requests unread, at random under overload.
  // probe_pipeline_stall() measures that defect on its own.
  http_config.max_pipeline = kMaxOutstandingPerConn + 1;
  stack.http = std::make_unique<HttpServer>(http_config);
  for (ServedModel& model : stack.models) {
    const auto config = serve_config(stack, model.tiered);
    model.server =
        model.tiered
            ? std::make_unique<InferenceServer>(model.tiers, config)
            : std::make_unique<InferenceServer>(*model.tiers.tiers[0].engine,
                                                config);
    stack.http->add_model(model.key, *model.server);
  }
  stack.http->start();
}

TieredEngine untiered(std::shared_ptr<const FixedNetwork> engine) {
  TieredEngine tiers;
  tiers.tiers.push_back({{"full", 4}, std::move(engine)});
  return tiers;
}

/// Cold start of the serve workloads: every engine and tier from the
/// plan-artifact tier of a fresh EngineCache, then the servers.
std::unique_ptr<ServeStack> cold_start(const std::string& out_dir) {
  auto stack = std::make_unique<ServeStack>();
  stack->cache = std::make_unique<man::serve::EngineCache>(
      out_dir + "/models", out_dir + "/plans");
  stack->pool = std::make_shared<man::serve::ThreadPool>(bench_workers());
  man::serve::EngineSpec digit{.app = man::apps::AppId::kDigitMlp8,
                               .alphabets = 4,
                               .trained = false};
  man::serve::EngineSpec face{.app = man::apps::AppId::kFaceMlp12,
                              .alphabets = 4,
                              .trained = false};
  ServedModel digit_model;
  digit_model.key = "digit";
  digit_model.app = digit.app;
  digit_model.tiered = true;
  {
    const Span span("serve.EngineCache.tiered");
    digit_model.tiers = stack->cache->tiered(
        digit, man::serve::parse_qos_tiers(kDigitLadder));
  }
  ServedModel face_model;
  face_model.key = "face";
  face_model.app = face.app;
  {
    const Span span("serve.EngineCache.get");
    face_model.tiers = untiered(stack->cache->get(face));
  }
  stack->models.push_back(std::move(digit_model));
  stack->models.push_back(std::move(face_model));
  start_servers(*stack);
  return stack;
}

/// A pre-framed request of the seeded pool.
struct PooledRequest {
  std::size_t model = 0;
  std::size_t samples = 0;
  bool binary = false;
  std::vector<float> pixels;
  std::string frame;
};

std::vector<PooledRequest> make_pool(const ServeStack& stack,
                                     const std::vector<Kind>& mix,
                                     man::util::Rng& rng) {
  std::vector<PooledRequest> pool;
  for (const Kind& kind : mix) {
    const ServedModel& model = stack.models[kind.model];
    const std::size_t in_size = model.tiers.tiers[0].engine->input_size();
    for (std::size_t i = 0; i < kPoolPerKind; ++i) {
      PooledRequest request{kind.model, kind.samples, kind.binary,
                            make_pixels(rng, kind.samples * in_size), {}};
      std::string body;
      if (kind.binary) {
        body.assign(request.pixels.size() * sizeof(float), '\0');
        std::memcpy(body.data(), request.pixels.data(), body.size());
      } else {
        body = man::serve::http::encode_pixels_json(request.pixels);
      }
      request.frame = man::serve::http::HttpClient::frame(
          "POST", "/v1/infer/" + model.key, body,
          kind.binary ? "application/octet-stream" : "application/json");
      pool.push_back(std::move(request));
    }
  }
  return pool;
}

/// Poisson arrivals at `rate` for `seconds`: (offset, pool index).
struct Arrival {
  double at_s;
  std::uint32_t pool_index;
};

std::vector<Arrival> make_schedule(man::util::Rng& rng,
                                   const std::vector<Kind>& mix, double rate,
                                   double seconds) {
  double total_weight = 0.0;
  for (const Kind& kind : mix) total_weight += kind.weight;
  std::vector<Arrival> arrivals;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    double pick = rng.next_double() * total_weight;
    std::size_t kind = 0;
    while (kind + 1 < mix.size() && pick >= mix[kind].weight) {
      pick -= mix[kind].weight;
      ++kind;
    }
    arrivals.push_back(
        {t, static_cast<std::uint32_t>(kind * kPoolPerKind +
                                       rng.next_below(kPoolPerKind))});
  }
  return arrivals;
}

/// A 200 kept for the oracle and the serve-layer timings.
struct KeptResponse {
  std::uint32_t pool_index = 0;
  std::string tier;
  std::string body;
};

/// Client-side tally of one rate step.
struct StepResult {
  std::string name;
  double rate = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;          ///< 429
  std::uint64_t expired = 0;       ///< 504
  std::uint64_t other = 0;         ///< any other status, bad framing
  std::uint64_t transport = 0;     ///< connection lost / no answer
  /// Not sent: every connection already had kMaxOutstandingPerConn
  /// requests unanswered (the clients' backlog is bounded, as a real
  /// client pool's is).
  std::uint64_t dropped = 0;
  double elapsed_s = 0.0;  ///< first send to last answer
  /// 200 samples completed per kWindowSeconds window of the step.
  std::vector<std::uint64_t> window_samples;
  std::uint64_t ok_samples = 0;
  std::uint64_t within_limit = 0;  ///< 200 within the latency limit
  std::vector<double> ok_latency_ms;
  std::vector<double> lag_ms;
  /// 200s per (model, tier header).
  std::map<std::pair<std::size_t, std::string>, std::uint64_t> tier_ok;
  std::vector<KeptResponse> kept;

  [[nodiscard]] std::uint64_t not_ok() const { return sent - ok; }
};

/// Single-threaded open-loop generator: sends each request at its
/// scheduled instant (a timerfd wakes it), round-robin over pipelined
/// keep-alive connections, and reads responses as they arrive.
class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, int connections) {
    try {
      open(port, connections);
    } catch (...) {
      close_all();
      throw;
    }
  }

  ~LoadGenerator() { close_all(); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Runs one step; keeps every `keep_every`-th 200 (by request id).
  StepResult run(const Step& step, double seconds,
                 const std::vector<Arrival>& arrivals,
                 const std::vector<PooledRequest>& pool, double limit_ms,
                 std::uint64_t keep_every) {
    StepResult result;
    result.name = step.name;
    result.rate = step.rate;
    pool_ = &pool;
    step_ = &result;
    limit_ms_ = limit_ms;
    keep_every_ = keep_every;

    const Clock::time_point start = Clock::now();
    start_ = start;
    result.window_samples.assign(
        static_cast<std::size_t>(seconds / kWindowSeconds), 0);
    const auto at = [start](const Arrival& a) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.at_s));
    };
    const Clock::time_point drain_deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds + 10.0));
    std::size_t next = 0;
    std::size_t round_robin = 0;
    epoll_event events[32];
    for (;;) {
      Clock::time_point now = Clock::now();
      while (next < arrivals.size() && at(arrivals[next]) <= now) {
        Conn* conn = nullptr;
        bool any_open = false;
        for (std::size_t tries = 0; tries < conns_.size() && conn == nullptr;
             ++tries) {
          Conn& candidate = conns_[round_robin++ % conns_.size()];
          if (candidate.fd < 0) continue;
          any_open = true;
          if (candidate.inflight.size() < kMaxOutstandingPerConn) {
            conn = &candidate;
          }
        }
        const Arrival& arrival = arrivals[next++];
        result.sent += 1;
        if (conn == nullptr) {
          (any_open ? result.dropped : result.transport) += 1;
          continue;
        }
        conn->out.append(pool[arrival.pool_index].frame);
        conn->inflight.push_back(
            {++request_counter_, at(arrival), arrival.pool_index});
        outstanding_ += 1;
        result.lag_ms.push_back(seconds_between(at(arrival), now) * 1e3);
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) flush(i);
      if (next >= arrivals.size() && outstanding_ == 0) break;

      int timeout_ms = -1;
      if (next < arrivals.size()) {
        const auto due = at(arrivals[next]).time_since_epoch();
        itimerspec spec{};
        spec.it_value.tv_sec = static_cast<time_t>(
            std::chrono::duration_cast<std::chrono::seconds>(due).count());
        spec.it_value.tv_nsec = static_cast<long>(
            (due - std::chrono::duration_cast<std::chrono::seconds>(due))
                .count());
        timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
      } else {
        if (now >= drain_deadline) {
          for (std::size_t i = 0; i < conns_.size(); ++i) drop(i);
          break;
        }
        timeout_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                drain_deadline - now)
                .count()) + 1;
      }
      const int ready = epoll_wait(epoll_fd_, events, 32, timeout_ms);
      for (int e = 0; e < ready; ++e) {
        const std::uint32_t tag = events[e].data.u32;
        if (tag == kTimerTag) {
          std::uint64_t ticks = 0;
          (void)!read(timer_fd_, &ticks, sizeof ticks);
          continue;
        }
        if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          receive(tag);
        }
        if ((events[e].events & EPOLLOUT) != 0) flush(tag);
      }
    }
    result.elapsed_s = seconds_between(start, Clock::now());
    return result;
  }

 private:
  static constexpr std::uint32_t kTimerTag = 0xffffffffU;

  struct Outstanding {
    std::uint64_t request_id;
    Clock::time_point intended;
    std::uint32_t pool_index;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    bool want_write = false;
    std::string in;
    std::deque<Outstanding> inflight;
  };

  void open(std::uint16_t port, int connections) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (epoll_fd_ < 0 || timer_fd_ < 0) {
      throw std::runtime_error("generator: epoll/timerfd failed");
    }
    add(timer_fd_, kTimerTag, EPOLLIN);
    conns_.resize(static_cast<std::size_t>(connections));
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (conn.fd < 0 ||
          connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
              0) {
        throw std::runtime_error("generator: connect failed");
      }
      const int one = 1;
      setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
      add(conn.fd, static_cast<std::uint32_t>(i), EPOLLIN);
    }
  }

  void close_all() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
    }
    if (timer_fd_ >= 0) ::close(timer_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    timer_fd_ = epoll_fd_ = -1;
  }

  void add(int fd, std::uint32_t tag, std::uint32_t events) {
    epoll_event event{};
    event.events = events;
    event.data.u32 = tag;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  }

  void set_write_interest(Conn& conn, std::uint32_t tag, bool want) {
    if (conn.want_write == want) return;
    conn.want_write = want;
    epoll_event event{};
    event.events = EPOLLIN | (want ? EPOLLOUT : 0U);
    event.data.u32 = tag;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
  }

  void flush(std::uint32_t tag) {
    Conn& conn = conns_[tag];
    if (conn.fd < 0) return;
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      drop(tag);
      return;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    set_write_interest(conn, tag, !conn.out.empty());
  }

  /// Closes a connection; its unanswered requests count as transport
  /// failures.
  void drop(std::uint32_t tag) {
    Conn& conn = conns_[tag];
    if (conn.fd < 0) return;
    step_->transport += conn.inflight.size();
    outstanding_ -= conn.inflight.size();
    conn.inflight.clear();
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
  }

  void receive(std::uint32_t tag) {
    Conn& conn = conns_[tag];
    if (conn.fd < 0) return;  // dropped earlier in this epoll batch
    char buffer[65536];
    bool closed = false;
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        conn.in.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      closed = true;
      break;
    }
    const Clock::time_point now = Clock::now();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t header_end = conn.in.find("\r\n\r\n", pos);
      if (header_end == std::string::npos) break;
      int status = 0;
      std::size_t content_length = 0;
      std::string tier;
      std::size_t line = pos;
      while (line < header_end) {
        std::size_t eol = conn.in.find("\r\n", line);
        if (eol == std::string::npos || eol > header_end) eol = header_end;
        const std::string_view text(conn.in.data() + line, eol - line);
        if (line == pos) {
          if (text.size() >= 12) status = std::atoi(std::string(text.substr(9, 3)).c_str());
        } else if (const std::size_t colon = text.find(':');
                   colon != std::string_view::npos) {
          std::string name(text.substr(0, colon));
          for (char& c : name) c = static_cast<char>(std::tolower(c));
          std::string_view value = text.substr(colon + 1);
          while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
          if (name == "content-length") {
            content_length = std::strtoull(std::string(value).c_str(), nullptr, 10);
          } else if (name == "x-man-accuracy-tier") {
            tier = std::string(value);
          }
        }
        line = eol + 2;
      }
      const std::size_t end = header_end + 4 + content_length;
      if (conn.in.size() < end) break;
      if (conn.inflight.empty()) {
        step_->other += 1;  // an answer nobody asked for
        closed = true;
        break;
      }
      complete(conn.inflight.front(), status, std::move(tier),
               std::string_view(conn.in.data() + header_end + 4,
                                content_length),
               now);
      conn.inflight.pop_front();
      outstanding_ -= 1;
      pos = end;
    }
    conn.in.erase(0, pos);
    if (closed) drop(tag);
  }

  void complete(const Outstanding& request, int status, std::string tier,
                std::string_view body, Clock::time_point now) {
    StepResult& step = *step_;
    const PooledRequest& pooled = (*pool_)[request.pool_index];
    const double latency_ms = seconds_between(request.intended, now) * 1e3;
    Tracer::instance().record("client.round_trip", request.intended, now, 0,
                              request.request_id);
    if (status == 200) {
      step.ok += 1;
      step.ok_samples += pooled.samples;
      const auto window = static_cast<std::size_t>(
          seconds_between(start_, now) / kWindowSeconds);
      if (window < step.window_samples.size()) {
        step.window_samples[window] += pooled.samples;
      }
      step.ok_latency_ms.push_back(latency_ms);
      if (latency_ms <= limit_ms_) step.within_limit += 1;
      step.tier_ok[{pooled.model, tier}] += 1;
      if (request.request_id % keep_every_ == 0) {
        step.kept.push_back({request.pool_index, std::move(tier),
                             std::string(body)});
      }
    } else if (status == 429) {
      step.shed += 1;
    } else if (status == 504) {
      step.expired += 1;
    } else {
      step.other += 1;
    }
  }

  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t request_counter_ = 0;
  std::size_t outstanding_ = 0;
  const std::vector<PooledRequest>* pool_ = nullptr;
  StepResult* step_ = nullptr;
  Clock::time_point start_;
  double limit_ms_ = 0.0;
  std::uint64_t keep_every_ = 1;
};

/// Integer array "key":[...] or scalar "key":N of a response body.
std::vector<std::int64_t> json_ints(std::string_view body,
                                    std::string_view key) {
  std::vector<std::int64_t> values;
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string_view::npos) return values;
  const std::string tail(body.substr(at + needle.size()));
  const char* cursor = tail.c_str();
  const bool array = *cursor == '[';
  if (array) ++cursor;
  while (*cursor != '\0' && *cursor != ']') {
    char* end = nullptr;
    const long long value = std::strtoll(cursor, &end, 10);
    if (end == cursor) break;
    values.push_back(value);
    if (!array) break;
    cursor = *end == ',' ? end + 1 : end;
  }
  return values;
}

/// Oracle: sequential scalar-backend outputs per (pool request, tier),
/// computed once each.
class Oracle {
 public:
  Oracle(const ServeStack& stack, const std::vector<PooledRequest>& pool)
      : stack_(stack), pool_(pool) {}

  /// True when `raw` is what the named tier's engine computes.
  bool matches(std::uint32_t pool_index, const std::string& tier,
               const std::vector<std::int64_t>& raw) {
    const auto key = std::make_pair(pool_index, tier);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      const PooledRequest& request = pool_[pool_index];
      const FixedNetwork* engine =
          stack_.models[request.model].tier_engine(tier);
      std::vector<std::int64_t> expected;
      if (engine != nullptr) expected = reference_outputs(*engine, request.pixels);
      it = memo_.emplace(key, std::move(expected)).first;
    }
    return !it->second.empty() && it->second == raw;
  }

 private:
  const ServeStack& stack_;
  const std::vector<PooledRequest>& pool_;
  std::map<std::pair<std::uint32_t, std::string>, std::vector<std::int64_t>>
      memo_;
};

/// Checks every kept response against the oracle.
void check_kept(const std::vector<StepResult>& steps, Oracle& oracle,
                RunResult& result) {
  for (const StepResult& step : steps) {
    for (const KeptResponse& kept : step.kept) {
      result.attempted += 1;
      if (!oracle.matches(kept.pool_index, kept.tier,
                          json_ints(kept.body, "raw"))) {
        result.failed += 1;
        result.mismatches += 1;
      }
    }
  }
}

/// Sends every pooled request once, one at a time (so each is served
/// at tier 0), checks it and digests tier + outputs in pool order.
/// Multi-sample requests go first: the server sheds a request whose
/// samples x EWMA per-sample batch time exceeds the SLO, and a shed
/// request never refreshes that EWMA, so one slow 1-sample batch
/// would get every 16-sample request sent after it shed.
std::string digest_pass(const ServeStack& stack,
                        const std::vector<PooledRequest>& pool, Oracle& oracle,
                        RunResult& result) {
  std::vector<std::uint32_t> order(pool.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&pool](std::uint32_t a, std::uint32_t b) {
                     return pool[a].samples > pool[b].samples;
                   });
  man::serve::http::HttpClient client("127.0.0.1", stack.http->port());
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> answers(
      pool.size());
  for (const std::uint32_t i : order) {
    client.send_raw(pool[i].frame);
    const auto response = client.read_response();
    const std::string* tier = response.find_header("X-Man-Accuracy-Tier");
    const std::string tier_name = tier != nullptr ? *tier : "";
    std::vector<std::int64_t> raw = json_ints(response.body, "raw");
    result.attempted += 1;
    if (response.status != 200 || !oracle.matches(i, tier_name, raw)) {
      std::fprintf(stderr, "digest pass: request %u answered %d (tier %s)\n",
                   i, response.status, tier_name.c_str());
      result.failed += 1;
      result.mismatches += response.status == 200 ? 1 : 0;
    }
    answers[i] = {tier_name, std::move(raw)};
  }
  std::uint64_t digest = kDigestSeed;
  for (const auto& [tier_name, raw] : answers) {
    digest_bytes(digest, tier_name.data(), tier_name.size());
    digest_bytes(digest, raw.data(), raw.size() * sizeof(std::int64_t));
  }
  return hex_digest(digest);
}

/// Estimated pJ per sample served: each model's per-tier energy
/// (energy_from_activity over the pool's samples on that tier's
/// engine) weighted by the server's tier_samples.
double served_energy_pj(const ServeStack& stack,
                        const std::vector<PooledRequest>& pool,
                        const std::vector<InferenceServer::Metrics>& metrics) {
  double energy = 0.0;
  std::uint64_t samples = 0;
  for (std::size_t m = 0; m < stack.models.size(); ++m) {
    const ServedModel& model = stack.models[m];
    for (std::size_t t = 0; t < model.tiers.size(); ++t) {
      const std::uint64_t served =
          t < metrics[m].tier_samples.size() ? metrics[m].tier_samples[t] : 0;
      if (served == 0) continue;
      const FixedNetwork& engine = *model.tiers.tiers[t].engine;
      auto stats = engine.make_stats();
      auto scratch = engine.make_scratch();
      std::vector<std::int64_t> out(engine.output_size());
      for (const PooledRequest& request : pool) {
        if (request.model != m) continue;
        for (std::size_t s = 0; s < request.samples; ++s) {
          engine.infer_into(std::span<const float>(request.pixels).subspan(
                                s * engine.input_size(), engine.input_size()),
                            out, stats, scratch);
        }
      }
      const double per_sample =
          man::apps::energy_from_activity(
              stats, engine.plan(), man::apps::get_app(model.app).weight_bits)
              .per_inference_pj();
      energy += per_sample * static_cast<double>(served);
      samples += served;
    }
  }
  return samples > 0 ? energy / static_cast<double>(samples) : 0.0;
}

std::vector<InferenceServer::Metrics> server_metrics(const ServeStack& stack) {
  std::vector<InferenceServer::Metrics> metrics;
  for (const ServedModel& model : stack.models) {
    metrics.push_back(model.server->metrics());
  }
  return metrics;
}

/// Runs `steps` in order on one generator, draining between steps.
std::vector<StepResult> run_steps(const ServeStack& stack,
                                  const std::vector<Step>& steps,
                                  double step_seconds,
                                  const std::vector<Kind>& mix,
                                  const std::vector<PooledRequest>& pool,
                                  man::util::Rng& rng,
                                  std::uint64_t keep_every) {
  LoadGenerator generator(stack.http->port(), bench_workers());
  std::vector<StepResult> results;
  for (const Step& step : steps) {
    const auto arrivals = make_schedule(rng, mix, step.rate, step_seconds);
    results.push_back(generator.run(step, step_seconds, arrivals, pool,
                                    static_cast<double>(stack.slo.count()) / 1e3,
                                    keep_every));
    const StepResult& r = results.back();
    const Summary lat = summarize(r.ok_latency_ms);
    std::printf(
        "step %-5s rate %6.0f req/s: sent %llu ok %llu failed %llu "
        "(shed %llu, expired %llu, dropped %llu, other %llu, transport %llu); "
        "%s\n",
        r.name.c_str(), r.rate, static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.not_ok()),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.expired),
        static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.other),
        static_cast<unsigned long long>(r.transport),
        describe(lat, "ms").c_str());
    std::printf("  tiers:");
    for (const auto& [model_tier, count] : r.tier_ok) {
      std::printf(" %s/%s=%llu", stack.models[model_tier.first].key.c_str(),
                  model_tier.second.c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
  return results;
}

/// Requests of a pipelined burst that the HttpServer leaves unanswered
/// when a connection's whole pipeline window is answered with inline
/// 429s. Reading pauses at max_pipeline, the 429s flush, nothing lifts
/// the pause, and the idle sweep closes the connection with the rest
/// of the burst unread. One request held in the micro-batcher keeps
/// the queue-delay estimate above a 1 us SLO, so the door sheds every
/// burst request. 0 once a flush lifts the pause.
double probe_pipeline_stall(const FixedNetwork& engine) {
  constexpr std::size_t kWindow = 4;
  constexpr std::size_t kBurst = 3 * kWindow;
  man::serve::ServeConfig config;
  config.max_wait = std::chrono::seconds(5);
  config.workers = 1;
  config.queue_delay_slo = std::chrono::microseconds(1);
  InferenceServer server(engine, config);
  man::serve::http::HttpServerConfig http_config;
  http_config.max_pipeline = kWindow;
  http_config.idle_timeout = std::chrono::milliseconds(200);
  HttpServer http(http_config);
  http.add_model("m", server);
  http.start();

  const auto frame = [&engine](std::size_t samples) {
    std::string body(samples * engine.input_size() * sizeof(float), '\0');
    const std::vector<float> pixels(samples * engine.input_size(), 0.5F);
    std::memcpy(body.data(), pixels.data(), body.size());
    return man::serve::http::HttpClient::frame("POST", "/v1/infer/m", body,
                                               "application/octet-stream");
  };
  // A full batch runs at once and gives the EWMA its first value; the
  // next request then waits in the queue for max_wait.
  man::serve::http::HttpClient holder("127.0.0.1", http.port());
  holder.send_raw(frame(config.max_batch));
  if (holder.read_response().status != 200) {
    throw std::runtime_error("pipeline-stall probe: priming request failed");
  }
  holder.send_raw(frame(1));

  man::serve::http::HttpClient burst("127.0.0.1", http.port(),
                                     std::chrono::seconds(2));
  std::string bytes;
  for (std::size_t i = 0; i < kBurst; ++i) bytes += frame(1);
  burst.send_raw(bytes);
  std::size_t answered = 0;
  try {
    for (; answered < kBurst; ++answered) (void)burst.read_response();
  } catch (const std::runtime_error&) {
    // Closed or timed out: the rest of the burst is unanswered.
  }
  return static_cast<double>(kBurst - answered);
}

/// Per-layer serve, serve/http and generator metrics of a finished run.
void add_serving_layers(const ServeStack& stack,
                        const std::vector<StepResult>& steps,
                        RunResult& result) {
  std::vector<double> queue_ms;
  std::vector<double> compute_ms;
  std::map<std::string, std::uint64_t> tiers;
  std::uint64_t ok = 0;
  std::vector<double> lag_ms;
  std::uint64_t sent = 0;
  for (const StepResult& step : steps) {
    for (const KeptResponse& kept : step.kept) {
      const auto queue = json_ints(kept.body, "queue_ns");
      const auto compute = json_ints(kept.body, "compute_ns");
      if (!queue.empty()) queue_ms.push_back(static_cast<double>(queue[0]) / 1e6);
      if (!compute.empty()) {
        compute_ms.push_back(static_cast<double>(compute[0]) / 1e6);
      }
    }
    for (const auto& [model_tier, count] : step.tier_ok) {
      tiers[model_tier.second] += count;
      ok += count;
    }
    lag_ms.insert(lag_ms.end(), step.lag_ms.begin(), step.lag_ms.end());
    sent += step.sent;
  }
  result.add("serve.queue_ms_p50", percentile(queue_ms, 50), "ms");
  result.add("serve.queue_ms_p99", percentile(queue_ms, 99), "ms");
  result.add("serve.compute_ms_p50", percentile(compute_ms, 50), "ms");
  result.add("serve.compute_ms_p99", percentile(compute_ms, 99), "ms");

  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  std::uint64_t deadline_flushes = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  for (const auto& m : server_metrics(stack)) {
    batches += m.batches;
    samples += m.samples;
    deadline_flushes += m.deadline_flushes;
    rejected += m.rejected_overload;
    expired += m.deadline_expired;
  }
  result.add("serve.batch_samples_mean",
             batches > 0 ? static_cast<double>(samples) / batches : 0.0,
             "samples");
  result.add("serve.deadline_flush_share",
             batches > 0 ? static_cast<double>(deadline_flushes) / batches : 0.0,
             "ratio");
  for (const char* tier : {"asm4", "asm2", "exact", "full"}) {
    result.add(std::string("serve.tier_share.") + tier,
               ok > 0 ? static_cast<double>(tiers[tier]) / ok : 0.0, "ratio");
  }
  result.add("serve.rejected_overload", static_cast<double>(rejected), "count");
  result.add("serve.deadline_expired", static_cast<double>(expired), "count");

  const HttpServer::Metrics http = stack.http->metrics();
  result.add("http.server_ms_p50", static_cast<double>(http.p50_ns) / 1e6, "ms");
  result.add("http.server_ms_p99", static_cast<double>(http.p99_ns) / 1e6, "ms");
  const double requests = std::max<double>(1.0, static_cast<double>(http.requests));
  result.add("http.bytes_in_per_req", static_cast<double>(http.bytes_in) / requests,
             "B");
  result.add("http.bytes_out_per_req",
             static_cast<double>(http.bytes_out) / requests, "B");
  result.add("http.shed", static_cast<double>(http.shed), "count");
  result.add("http.backpressure_pauses",
             static_cast<double>(http.backpressure_pauses), "count");
  result.add("http.pipeline_stall_unanswered",
             probe_pipeline_stall(*stack.models[0].tiers.tiers[0].engine),
             "count");
  result.add("gen.lag_ms_p99", percentile(lag_ms, 99), "ms");
  result.add("gen.sent", static_cast<double>(sent), "count");
}

/// Highest ladder rate at which >= 99% of requests sent got a 200
/// within the latency limit, interpolated between the bracketing
/// steps (below the first step: scaled down from it).
double goodput_rps(const std::vector<StepResult>& steps) {
  const auto pass = [](const StepResult& s) {
    return s.sent > 0 ? static_cast<double>(s.within_limit) / s.sent : 0.0;
  };
  constexpr double kTarget = 0.99;
  if (steps.empty()) return 0.0;
  if (pass(steps[0]) < kTarget) return steps[0].rate * pass(steps[0]) / kTarget;
  std::size_t i = 0;
  while (i + 1 < steps.size() && pass(steps[i + 1]) >= kTarget) ++i;
  if (i + 1 == steps.size()) return steps[i].rate;
  const double p_lo = pass(steps[i]);
  const double p_hi = pass(steps[i + 1]);
  return steps[i].rate +
         (steps[i + 1].rate - steps[i].rate) * (p_lo - kTarget) / (p_lo - p_hi);
}

const StepResult& step_named(const std::vector<StepResult>& steps,
                             const std::string& name) {
  for (const StepResult& step : steps) {
    if (step.name == name) return step;
  }
  throw std::logic_error("no step " + name);
}

}  // namespace

RunResult run_serve(const Options& options, bool overload) {
  RunResult result;

  // Untimed preparation: compile every engine once and publish its
  // plan artifact for the cold starts below.
  { const auto prepared = cold_start(options.out_dir); }

  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = cold_start(options.out_dir);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (stack->cache->plan_dir().empty() ||
      std::distance(std::filesystem::directory_iterator(stack->cache->plan_dir()),
                    std::filesystem::directory_iterator{}) < 4) {
    throw std::runtime_error("plan artifacts were not published");
  }

  man::util::Rng rng(options.seed);
  const std::vector<PooledRequest> pool = make_pool(*stack, kServeMix, rng);

  std::vector<Step> steps;
  if (overload) {
    steps.push_back(kOverloadStep);
  } else {
    steps.assign(std::begin(kHttpLadder), std::end(kHttpLadder));
  }
  const std::string reference = overload ? "over" : "knee";
  // The traced run first repeats the reference step untraced, for the
  // tracing overhead; its steps share the same total time.
  const double step_seconds =
      options.seconds / static_cast<double>(steps.size() + (options.trace ? 1 : 0));
  double plain_median = 0.0;
  if (options.trace) {
    std::vector<Step> plain_steps;
    for (const Step& step : steps) {
      if (step.name == reference) plain_steps.push_back(step);
    }
    const auto plain = run_steps(*stack, plain_steps, step_seconds, kServeMix,
                                 pool, rng, 1);
    plain_median = summarize(plain[0].ok_latency_ms).median;
    Tracer::instance().enable(true);
  }
  const std::uint64_t keep_every = options.trace ? 1 : 4;
  const std::vector<StepResult> results =
      run_steps(*stack, steps, step_seconds, kServeMix, pool, rng, keep_every);
  const auto metrics = server_metrics(*stack);

  Oracle oracle(*stack, pool);
  check_kept(results, oracle, result);
  result.digest = digest_pass(*stack, pool, oracle, result);

  // Failures of the program: transport errors and unexpected statuses.
  // Shedding (429), expired deadlines (504) and arrivals the bounded
  // client backlog dropped are admission outcomes, not wrong answers:
  // they count against failed_share and goodput, not here.
  std::uint64_t sent = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t ok_samples = 0;
  for (const StepResult& step : results) {
    result.failed += step.transport + step.other;
    result.attempted += step.sent;
    sent += step.sent;
    not_ok += step.not_ok();
    ok_samples += step.ok_samples;
  }

  const StepResult& ref = step_named(results, reference);
  const Summary ref_lat = summarize(ref.ok_latency_ms);
  if (options.trace) {
    result.add("trace.overhead_share", ref_lat.median / plain_median - 1.0,
               "ratio");
    const ServedModel& digit = stack->models[0];
    std::vector<ProbeModel> served;
    for (const ServedModel& model : stack->models) {
      for (const auto& tier : model.tiers.tiers) {
        served.push_back({model.key + "." + tier.spec.name, tier.engine});
      }
    }
    std::vector<float> samples;
    std::vector<std::string> json_frames;
    std::vector<std::string> binary_frames;
    for (const PooledRequest& request : pool) {
      (request.binary ? binary_frames : json_frames).push_back(request.frame);
      if (request.model == 0) {
        samples.insert(samples.end(), request.pixels.begin(),
                       request.pixels.end());
      }
    }
    const auto& engine = *digit.tiers.tiers[0].engine;
    samples.resize(std::min(samples.size(), 128 * engine.input_size()));
    probe_backend(engine, options.seed, result);
    probe_engine(man::apps::AppId::kDigitMlp8, engine, samples, result);
    probe_artifact(served, options.out_dir, options.seed, result);
    probe_codec(json_frames, binary_frames, engine, result);
    add_serving_layers(*stack, results, result);
    return result;
  }

  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (overload) {
    // Served capacity: the fastest decile of the step's windows (a
    // shared host slows a varying share of them).
    std::vector<double> rates;
    for (const std::uint64_t samples : ref.window_samples) {
      rates.push_back(static_cast<double>(samples) / kWindowSeconds);
    }
    result.add("samples_per_s", percentile(rates, 90), "samples/s");
  } else {
    double elapsed = 0.0;
    for (const StepResult& step : results) elapsed += step.elapsed_s;
    result.add("samples_per_s", static_cast<double>(ok_samples) / elapsed,
               "samples/s");
  }
  result.add("energy_pj_per_sample", served_energy_pj(*stack, pool, metrics),
             "pJ");

  // The step-qualified serving metrics, reported by name.
  result.report("failed_share",
                sent > 0 ? static_cast<double>(not_ok) / sent : 0.0, "ratio");
  if (overload) {
    result.report("lat_p99_ms.over", ref_lat.p99, "ms");
    std::uint64_t digit_ok = 0;
    std::uint64_t digit_full = 0;
    for (const auto& [model_tier, count] : ref.tier_ok) {
      if (model_tier.first != 0) continue;
      digit_ok += count;
      if (model_tier.second == "asm4") digit_full += count;
    }
    result.report("full_tier_share",
                  digit_ok > 0 ? static_cast<double>(digit_full) / digit_ok
                               : 0.0,
                  "ratio");
  } else {
    const Summary low = summarize(step_named(results, "low").ok_latency_ms);
    result.report("lat_p50_ms.low", low.median, "ms");
    result.report("lat_p99_ms.low", low.p99, "ms");
    result.report("lat_p50_ms.knee", ref_lat.median, "ms");
    result.report("lat_p99_ms.knee", ref_lat.p99, "ms");
    result.report("goodput_rps", goodput_rps(results), "req/s");
  }
  return result;
}

void probe_serving(man::apps::AppId app,
                   const std::shared_ptr<const FixedNetwork>& engine,
                   std::uint64_t seed, RunResult& result) {
  ServeStack stack;
  stack.slo = kProbeSlo;
  stack.pool = std::make_shared<man::serve::ThreadPool>(bench_workers());
  ServedModel model;
  model.key = "replay";
  model.app = app;
  model.tiers = untiered(engine);
  stack.models.push_back(std::move(model));
  start_servers(stack);
  man::util::Rng rng(seed ^ 0x5e7e);
  const std::vector<PooledRequest> pool = make_pool(stack, kProbeMix, rng);
  const auto steps =
      run_steps(stack, {kProbeStep}, kProbeSeconds, kProbeMix, pool, rng, 1);
  Oracle oracle(stack, pool);
  check_kept(steps, oracle, result);
  for (const StepResult& step : steps) {
    result.attempted += step.sent;
    result.failed += step.not_ok();
  }
  add_serving_layers(stack, steps, result);
}

}  // namespace perfbench
