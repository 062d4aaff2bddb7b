// replay-mlp / replay-cnn: closed-loop BatchRunner::run over a seeded
// pool of 64-sample batches. One batch is in flight at a time, so
// throughput is the batch size over the median batch time.
#include <cstdio>
#include <cstring>

#include "man/apps/activity_energy.h"
#include "man/backend/kernel_backend.h"
#include "man/core/alphabet_set.h"
#include "man/engine/batch_runner.h"
#include "man/nn/constraint_projection.h"
#include "man/serve/http/http_client.h"
#include "man/serve/http/wire.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kPoolBatches = 4;
/// Untrained-weight seed of every benchmark engine (the weights are
/// part of the program under test, not of the workload's inputs).
constexpr std::uint64_t kWeightSeed = 42;

/// Times the closed loop for `seconds`, cycling the pool; returns the
/// per-batch latencies in ms and counts mismatches against `expected`.
std::vector<double> replay_loop(man::engine::BatchRunner& runner,
                                const std::vector<float>& inputs,
                                const std::vector<std::int64_t>& expected,
                                std::size_t in_size, std::size_t out_size,
                                double seconds, bool traced,
                                RunResult& result) {
  std::vector<double> latencies;
  std::vector<std::int64_t> out(kBatch * out_size);
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t iter = 0;; ++iter) {
    const std::size_t b = iter % kPoolBatches;
    const std::span<const float> batch(inputs.data() + b * kBatch * in_size,
                                       kBatch * in_size);
    const Clock::time_point t0 = Clock::now();
    if (t0 >= stop) break;
    runner.run(batch, out);
    const Clock::time_point t1 = Clock::now();
    if (traced) {
      Tracer::instance().record("engine.BatchRunner.run", t0, t1, 0, iter + 1);
    }
    latencies.push_back(seconds_between(t0, t1) * 1e3);
    result.attempted += 1;
    if (std::memcmp(out.data(), expected.data() + b * kBatch * out_size,
                    out.size() * sizeof(std::int64_t)) != 0) {
      result.failed += 1;
      result.mismatches += 1;
    }
  }
  return latencies;
}

}  // namespace

std::shared_ptr<const man::engine::FixedNetwork> build_asm4_engine(
    man::apps::AppId app) {
  const auto& spec = man::apps::get_app(app);
  man::nn::Network net = spec.build_network(kWeightSeed);
  const man::core::AlphabetSet& set = man::core::AlphabetSet::four();
  const man::nn::ProjectionPlan projection(spec.quant(), set,
                                           net.num_weight_layers());
  projection.project_network(net);
  return std::make_shared<const man::engine::FixedNetwork>(
      net, spec.quant(),
      man::engine::LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                                  set));
}

std::vector<std::int64_t> reference_outputs(
    const man::engine::FixedNetwork& engine, std::span<const float> inputs) {
  const std::size_t in_size = engine.input_size();
  const std::size_t count = inputs.size() / in_size;
  const auto& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);
  std::vector<std::int64_t> out(count * engine.output_size());
  auto stats = engine.make_stats();
  auto scratch = engine.make_scratch();
  for (std::size_t s = 0; s < count; ++s) {
    engine.infer_into(inputs.subspan(s * in_size, in_size),
                      std::span<std::int64_t>(
                          out.data() + s * engine.output_size(),
                          engine.output_size()),
                      stats, scratch, scalar);
  }
  return out;
}

RunResult run_replay(const Options& options, man::apps::AppId app) {
  RunResult result;
  const auto& spec = man::apps::get_app(app);

  // Set-up: the engine build, repeated; the last engine is replayed.
  std::vector<double> setup_s;
  std::shared_ptr<const man::engine::FixedNetwork> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = build_asm4_engine(app);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::size_t in_size = engine->input_size();
  const std::size_t out_size = engine->output_size();
  std::printf("set-up (engine build) s:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  man::util::Rng rng(options.seed);
  const std::vector<float> inputs =
      make_pixels(rng, kPoolBatches * kBatch * in_size);
  const std::vector<std::int64_t> expected =
      reference_outputs(*engine, inputs);

  man::engine::BatchOptions batch_options;
  batch_options.workers = bench_workers();
  man::engine::BatchRunner runner(*engine, batch_options);

  // One untimed pass over the pool: warms the pool and the plan,
  // checks every batch, and gives the digest and the activity the
  // energy estimate prices.
  std::uint64_t digest = kDigestSeed;
  {
    std::vector<std::int64_t> out(kBatch * out_size);
    for (std::size_t b = 0; b < kPoolBatches; ++b) {
      runner.run(std::span<const float>(inputs.data() + b * kBatch * in_size,
                                        kBatch * in_size),
                 out);
      digest_bytes(digest, out.data(), out.size() * sizeof(std::int64_t));
      result.attempted += 1;
      if (std::memcmp(out.data(), expected.data() + b * kBatch * out_size,
                      out.size() * sizeof(std::int64_t)) != 0) {
        result.failed += 1;
        result.mismatches += 1;
      }
    }
  }
  result.digest = hex_digest(digest);
  const double energy_pj =
      man::apps::energy_from_activity(runner.stats(), engine->plan(),
                                      spec.weight_bits)
          .per_inference_pj();

  std::printf("replay %s: %zu-sample batches, %d workers, backend %s\n",
              spec.name.c_str(), kBatch, runner.workers(),
              runner.kernel().name());
  // The conv autotuner measures at build time, so its pick can differ
  // between runs; print it next to the numbers it moves.
  for (std::size_t i = 0; i < engine->conv_plans().size(); ++i) {
    const auto& tile = engine->conv_plans()[i].tile_avx512;
    std::printf("conv L%zu avx512 tile: %d rows x %d vectors%s\n", i,
                tile.row_tile, tile.col_vecs,
                tile.weight_stationary ? ", weight-stationary" : "");
  }

  if (!options.trace) {
    const std::vector<double> lat = replay_loop(
        runner, inputs, expected, in_size, out_size, options.seconds,
        /*traced=*/false, result);
    const Summary summary = summarize(lat);
    const double fast_ms = percentile(lat, 10);
    std::printf("batch latency: %s; fastest decile %.4g ms\n",
                describe(summary, "ms").c_str(), fast_ms);
    // Throughput from the fastest decile of batches: on a shared host
    // neighbours slow a varying share of batches, which moves the
    // median from run to run while the fastest decile holds.
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("samples_per_s", static_cast<double>(kBatch) / (fast_ms / 1e3),
               "samples/s");
    result.add("energy_pj_per_sample", energy_pj, "pJ");
    result.report("samples_per_s.median_batch",
                  static_cast<double>(kBatch) / (summary.median / 1e3),
                  "samples/s");
    result.report("batch_ms_p50", summary.median, "ms");
    result.report("failed_share",
                  static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted),
                  "ratio");
    return result;
  }

  // Traced run: the same loop untraced then traced (half the time
  // each) for the tracing overhead, then the per-layer probes.
  const Summary plain = summarize(replay_loop(runner, inputs, expected, in_size,
                                              out_size, options.seconds / 2,
                                              false, result));
  Tracer::instance().enable(true);
  const Summary traced = summarize(replay_loop(runner, inputs, expected,
                                               in_size, out_size,
                                               options.seconds / 2, true,
                                               result));
  result.add("trace.overhead_share", traced.median / plain.median - 1.0,
             "ratio");

  const std::size_t probe_samples = 2 * kBatch;
  const std::span<const float> samples(inputs.data(), probe_samples * in_size);
  probe_backend(*engine, options.seed, result);
  probe_engine(app, *engine, samples, result);
  probe_artifact({{"replay", engine}}, options.out_dir, options.seed, result);

  std::vector<std::string> json_frames;
  std::vector<std::string> binary_frames;
  for (std::size_t s = 0; s < 16; ++s) {
    json_frames.push_back(man::serve::http::HttpClient::frame(
        "POST", "/v1/infer/replay",
        man::serve::http::encode_pixels_json(samples.subspan(s * in_size,
                                                             in_size))));
    std::string packed(16 * in_size * sizeof(float), '\0');
    std::memcpy(packed.data(), samples.data() + s * in_size, packed.size());
    binary_frames.push_back(man::serve::http::HttpClient::frame(
        "POST", "/v1/infer/replay", packed, "application/octet-stream"));
  }
  probe_codec(json_frames, binary_frames, *engine, result);
  probe_serving(app, engine, options.seed, result);
  return result;
}

}  // namespace perfbench
