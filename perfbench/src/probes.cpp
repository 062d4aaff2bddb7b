// Per-layer probes: timed direct calls into the public functions of
// backend, engine, core, artifact and the HTTP wire codec, on the
// workload's own engines and inputs. Repeated timings report their
// median; every probe that produces outputs checks them.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>

#include "man/artifact/plan_artifact.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/batch_runner.h"
#include "man/serve/http/http_parser.h"
#include "man/serve/http/wire.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using man::backend::ConvLayerPlan;
using man::backend::DenseLayerPlan;
using man::backend::KernelBackend;

constexpr int kProbeBlocks = 7;
constexpr double kBlockSeconds = 0.002;

/// Median over kProbeBlocks blocks of the per-call time of `fn`, in
/// ns; each block repeats the call for about kBlockSeconds.
template <typename Fn>
double time_per_call_ns(Fn&& fn) {
  fn();  // warm
  const Clock::time_point t0 = Clock::now();
  fn();
  const double once = std::max(seconds_between(t0, Clock::now()), 1e-8);
  const int reps = std::max(1, static_cast<int>(kBlockSeconds / once));
  std::vector<double> per_call;
  for (int block = 0; block < kProbeBlocks; ++block) {
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back(seconds_between(start, Clock::now()) * 1e9 / reps);
  }
  return median(per_call);
}

template <typename T>
std::size_t array_bytes(const man::backend::PlanArray<T>& array) {
  return array.size() * sizeof(T);
}

std::size_t plan_bytes(const DenseLayerPlan& plan) {
  return array_bytes(plan.weights) + array_bytes(plan.biases) +
         array_bytes(plan.asm_weights) + array_bytes(plan.steps) +
         array_bytes(plan.idx) + array_bytes(plan.shifts) +
         array_bytes(plan.sign_masks);
}

std::size_t plan_bytes(const ConvLayerPlan& plan) {
  return array_bytes(plan.weights) + array_bytes(plan.biases) +
         array_bytes(plan.patch_elems) + array_bytes(plan.asm_weights) +
         array_bytes(plan.steps) + array_bytes(plan.idx) +
         array_bytes(plan.shifts) + array_bytes(plan.sign_masks);
}

/// One synapse layer as the backend sees it: inputs sized for the
/// plan (random bank outputs, zero slot / zero region kept 0, or raw
/// activations on exact plans) and the call that accumulates it.
struct LayerCase {
  std::uint64_t macs = 0;
  std::size_t bytes = 0;
  std::size_t outputs = 0;
  std::vector<std::int64_t> input;
  std::function<void(const KernelBackend&, std::int64_t*)> call;
};

std::vector<LayerCase> layer_cases(const man::engine::FixedNetwork& engine,
                                   man::util::Rng& rng) {
  const auto random_values = [&rng](std::size_t n) {
    std::vector<std::int64_t> values(n);
    for (auto& v : values) v = rng.next_in(-2048, 2048);
    return values;
  };
  // Synapse order of the app models: every conv stage precedes every
  // dense stage. Each call holds a pointer into its case's input, so
  // the vector must not reallocate.
  std::vector<LayerCase> cases;
  cases.reserve(engine.conv_plans().size() + engine.plans().size());
  for (const ConvLayerPlan& plan : engine.conv_plans()) {
    LayerCase& c = cases.emplace_back();
    c.macs = static_cast<std::uint64_t>(plan.oc) * plan.cols * plan.positions();
    c.bytes = plan_bytes(plan);
    c.outputs = static_cast<std::size_t>(plan.oc) * plan.positions();
    if (plan.exact) {
      c.input = random_values(plan.input_elems());
    } else {
      c.input = random_values(plan.padded_multiples());
      std::fill(c.input.begin() + plan.zero_base, c.input.end(), 0);
    }
    c.call = [&plan, input = c.input.data()](const KernelBackend& b,
                                             std::int64_t* out) {
      if (plan.exact) {
        b.exact_conv(plan, input, out);
      } else {
        b.accumulate_conv(plan, input, out);
      }
    };
  }
  for (const DenseLayerPlan& plan : engine.plans()) {
    LayerCase& c = cases.emplace_back();
    c.macs = static_cast<std::uint64_t>(plan.rows) * plan.cols;
    c.bytes = plan_bytes(plan);
    c.outputs = static_cast<std::size_t>(plan.rows);
    if (plan.exact) {
      c.input = random_values(static_cast<std::size_t>(plan.cols));
    } else {
      c.input = random_values(plan.padded_multiples());
      c.input[plan.zero_slot] = 0;
    }
    c.call = [&plan, input = c.input.data()](const KernelBackend& b,
                                             std::int64_t* out) {
      if (plan.exact) {
        b.exact_dense(plan, input, out);
      } else {
        b.accumulate_dense(plan, input, out);
      }
    };
  }
  return cases;
}

}  // namespace

void probe_backend(const man::engine::FixedNetwork& engine,
                   std::uint64_t seed, RunResult& result) {
  const Span probe("probe.backend");
  man::util::Rng rng(seed ^ 0xbacc);
  std::vector<LayerCase> cases = layer_cases(engine, rng);
  const KernelBackend& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);

  std::vector<std::vector<std::int64_t>> expected;
  for (LayerCase& c : cases) {
    expected.emplace_back(c.outputs);
    c.call(scalar, expected.back().data());
  }

  std::size_t total_bytes = 0;
  std::uint64_t total_macs = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    total_bytes += cases[i].bytes;
    total_macs += cases[i].macs;
  }
  for (const KernelBackend* backend : man::backend::all_backends()) {
    double total_ns = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      LayerCase& c = cases[i];
      std::vector<std::int64_t> out(c.outputs);
      c.call(*backend, out.data());
      result.attempted += 1;
      if (out != expected[i]) {
        result.failed += 1;
        result.mismatches += 1;
      }
      const Clock::time_point t0 = Clock::now();
      const double ns =
          time_per_call_ns([&] { c.call(*backend, out.data()); });
      Tracer::instance().record(
          engine.conv_plans().size() > i ? "backend.accumulate_conv"
                                         : "backend.accumulate_dense",
          t0, Clock::now(), probe.id());
      total_ns += ns;
      if (i < 2) {
        result.add("backend." + std::string(backend->name()) + ".L" +
                       std::to_string(i) + ".ns_per_mac",
                   ns / static_cast<double>(c.macs), "ns/MAC");
      }
    }
    result.add("backend." + std::string(backend->name()) + ".ns_per_mac",
               total_ns / static_cast<double>(total_macs), "ns/MAC");
  }
  for (std::size_t i = 0; i < 2 && i < cases.size(); ++i) {
    result.add("backend.L" + std::to_string(i) + ".plan_bytes",
               static_cast<double>(cases[i].bytes), "B");
  }
  result.add("backend.plan_bytes", static_cast<double>(total_bytes), "B");
}

void probe_engine(man::apps::AppId app,
                  const man::engine::FixedNetwork& engine,
                  std::span<const float> samples, RunResult& result) {
  const Span probe("probe.engine");
  const std::size_t in_size = engine.input_size();
  const std::size_t count = samples.size() / in_size;

  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)build_asm4_engine(app);
    build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  result.add("engine.build_ms", median(build_ms), "ms");

  // Single-thread infer_into, one span per call; median pass.
  std::vector<std::int64_t> out(engine.output_size());
  auto stats = engine.make_stats();
  auto scratch = engine.make_scratch();
  std::vector<double> pass_us;
  for (int pass = 0; pass < 5; ++pass) {
    const Clock::time_point start = Clock::now();
    for (std::size_t s = 0; s < count; ++s) {
      const Span call("engine.infer_into", probe.id());
      engine.infer_into(samples.subspan(s * in_size, in_size), out, stats,
                        scratch);
    }
    pass_us.push_back(seconds_between(start, Clock::now()) * 1e6 /
                      static_cast<double>(count));
  }
  const double single_us = median(pass_us);
  result.add("engine.infer_us_per_sample", single_us, "us");

  const int workers = bench_workers();
  man::engine::BatchOptions batch_options;
  batch_options.workers = workers;
  man::engine::BatchRunner runner(engine, batch_options);
  std::vector<std::int64_t> batch_out(count * engine.output_size());
  std::vector<double> parallel_us;
  for (int pass = 0; pass < 6; ++pass) {
    const Clock::time_point start = Clock::now();
    runner.run(samples, batch_out);
    if (pass > 0) {  // the first pass starts the pool
      parallel_us.push_back(seconds_between(start, Clock::now()) * 1e6 /
                            static_cast<double>(count));
    }
  }
  result.add("engine.parallel_efficiency",
             single_us / (workers * median(parallel_us)), "ratio");

  // Phase attribution through the public PhaseProfile hook, and the
  // CSHM caches of the same scratch afterwards.
  man::engine::PhaseProfile profile;
  auto profiled = engine.make_scratch();
  profiled.profile = &profile;
  for (std::size_t s = 0; s < count; ++s) {
    engine.infer_into(samples.subspan(s * in_size, in_size), out, stats,
                      profiled);
  }
  const double total = profile.quantize_s + profile.staging_s +
                       profile.kernel_s + profile.lut_s + profile.pool_s;
  const auto share = [total](double part) {
    return total > 0 ? part / total : 0.0;
  };
  result.add("engine.phase.quantize_share", share(profile.quantize_s), "ratio");
  result.add("engine.phase.staging_share", share(profile.staging_s), "ratio");
  result.add("engine.phase.kernel_share", share(profile.kernel_s), "ratio");
  result.add("engine.phase.lut_share", share(profile.lut_s), "ratio");
  result.add("engine.phase.pool_share", share(profile.pool_s), "ratio");
  const auto ns_per = [](double seconds, std::uint64_t values) {
    return values > 0 ? seconds * 1e9 / static_cast<double>(values) : 0.0;
  };
  result.add("engine.phase.staging_ns_per_value",
             ns_per(profile.staging_s, profile.staged_values), "ns");
  result.add("engine.phase.lut_ns_per_value",
             ns_per(profile.lut_s, profile.lut_values), "ns");

  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  std::size_t hash_entries = 0;
  for (const auto& cache : profiled.caches) {
    hits += cache.hits();
    lookups += cache.hits() + cache.misses();
    hash_entries += cache.hash_entries();
  }
  result.add("core.cache_hit_share",
             lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio");
  result.add("core.hash_fallback_entries", static_cast<double>(hash_entries),
             "count");
}

void probe_artifact(const std::vector<ProbeModel>& models,
                    const std::string& dir, std::uint64_t seed,
                    RunResult& result) {
  const Span probe("probe.artifact");
  man::util::Rng rng(seed ^ 0xa27);
  double bytes = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& engine = *models[m].engine;
    const std::string path = dir + "/probe-" + std::to_string(m) + ".plan";
    const std::string key = "perfbench|" + models[m].name;
    std::vector<double> saves;
    std::vector<double> loads;
    std::shared_ptr<const man::engine::FixedNetwork> loaded;
    for (int i = 0; i < 3; ++i) {
      {
        const Span span("artifact.save_engine", probe.id());
        const Clock::time_point t0 = Clock::now();
        man::artifact::save_engine(engine, path, key);
        saves.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      loaded.reset();
      const Span span("artifact.load_engine", probe.id());
      const Clock::time_point t0 = Clock::now();
      loaded = man::artifact::load_engine(path, key);
      loads.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    bytes += static_cast<double>(std::filesystem::file_size(path));
    save_ms += median(saves);
    load_ms += median(loads);

    // The loaded engine must answer bit-identically.
    const std::vector<float> pixels = make_pixels(rng, 2 * engine.input_size());
    result.attempted += 1;
    if (reference_outputs(engine, pixels) !=
        reference_outputs(*loaded, pixels)) {
      result.failed += 1;
      result.mismatches += 1;
    }
    loaded.reset();
    std::filesystem::remove(path);
  }
  result.add("artifact.bytes", bytes, "B");
  result.add("artifact.save_ms", save_ms, "ms");
  result.add("artifact.load_ms", load_ms, "ms");
}

void probe_codec(const std::vector<std::string>& json_frames,
                 const std::vector<std::string>& binary_frames,
                 const man::engine::FixedNetwork& engine,
                 RunResult& result) {
  using man::serve::http::RequestParser;
  const Span probe("probe.codec");

  // RequestParser::feed over the framed bytes, one request per frame.
  std::vector<man::serve::http::ParsedRequest> json_parsed;
  std::vector<man::serve::http::ParsedRequest> binary_parsed;
  std::size_t frame_bytes = 0;
  for (const auto& f : json_frames) frame_bytes += f.size();
  for (const auto& f : binary_frames) frame_bytes += f.size();
  const auto parse_all = [&] {
    json_parsed.clear();
    binary_parsed.clear();
    for (int kind = 0; kind < 2; ++kind) {
      for (const std::string& frame : kind == 0 ? json_frames : binary_frames) {
        RequestParser parser;
        if (parser.feed(frame) != RequestParser::State::kComplete) {
          result.failed += 1;
          continue;
        }
        (kind == 0 ? json_parsed : binary_parsed).push_back(parser.take());
      }
    }
  };
  double parse_ns = 0.0;
  {
    const Span span("http.RequestParser.feed", probe.id());
    parse_ns = time_per_call_ns(parse_all);
  }
  result.attempted += 1;
  result.add("http.parse_ns_per_byte",
             parse_ns / static_cast<double>(frame_bytes), "ns/B");

  const auto decode_us = [&](const std::vector<man::serve::http::ParsedRequest>&
                                 parsed) {
    const Span span("http.decode_infer_body", probe.id());
    const double ns = time_per_call_ns([&] {
      for (const auto& request : parsed) {
        const auto decoded = man::serve::http::decode_infer_body(request);
        if (!decoded.ok) result.failed += 1;
      }
    });
    return parsed.empty() ? 0.0 : ns / 1e3 / static_cast<double>(parsed.size());
  };
  result.add("http.decode_us.json", decode_us(json_parsed), "us");
  result.add("http.decode_us.binary", decode_us(binary_parsed), "us");

  // encode_result_json + encode_http_response for one served sample.
  man::serve::InferenceResult served;
  served.samples = 1;
  served.output_size = engine.output_size();
  const auto decoded = man::serve::http::decode_infer_body(json_parsed.at(0));
  served.raw = reference_outputs(engine, decoded.pixels);
  served.predictions = {man::engine::argmax_raw(served.raw)};
  served.backend = engine.default_kernel().name();
  served.tier_name = "asm4";
  double encode_ns = 0.0;
  {
    const Span span("http.encode", probe.id());
    encode_ns = time_per_call_ns([&] {
      const std::string body =
          man::serve::http::encode_result_json("model", served);
      const std::string framed = man::serve::http::encode_http_response(
          200, "application/json", body, true,
          {{"X-Man-Accuracy-Tier", served.tier_name}});
      if (framed.empty()) result.failed += 1;
    });
  }
  result.add("http.encode_us", encode_ns / 1e3, "us");
}

}  // namespace perfbench
