// The four workloads and the per-layer probes they share.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "man/apps/app_registry.h"
#include "man/engine/fixed_network.h"

namespace perfbench {

/// replay-mlp / replay-cnn: closed-loop BatchRunner::run over 64-sample
/// batches of one app's ASM-4 engine.
RunResult run_replay(const Options& options, man::apps::AppId app);

/// serve-http (a fixed ascending rate ladder) and serve-overload (one
/// rate above capacity): open-loop HTTP traffic against the digit and
/// face models cold-started from plan artifacts.
RunResult run_serve(const Options& options, bool overload);

/// The ASM-4 {1,3,5,7} engine of `app` over deterministic untrained
/// weights: build_network + projection + FixedNetwork (compile_plan,
/// conv autotune) — the engine build every replay set-up times.
[[nodiscard]] std::shared_ptr<const man::engine::FixedNetwork>
build_asm4_engine(man::apps::AppId app);

/// Sequential scalar-backend reference: infer_into sample by sample.
[[nodiscard]] std::vector<std::int64_t> reference_outputs(
    const man::engine::FixedNetwork& engine, std::span<const float> inputs);

/// One engine a workload replays or serves, for the artifact probe.
struct ProbeModel {
  std::string name;
  std::shared_ptr<const man::engine::FixedNetwork> engine;
};

/// Per-layer probes: direct, timed calls into each module's public
/// functions on the workload's own engines and inputs. Each adds its
/// metrics to `result` and counts bit-identity failures there.
void probe_backend(const man::engine::FixedNetwork& engine,
                   std::uint64_t seed, RunResult& result);
void probe_engine(man::apps::AppId app,
                  const man::engine::FixedNetwork& engine,
                  std::span<const float> samples, RunResult& result);
void probe_artifact(const std::vector<ProbeModel>& models,
                    const std::string& dir, std::uint64_t seed,
                    RunResult& result);
/// Wire codec on framed requests (JSON 1-sample and packed-float
/// multi-sample ones); `engine` supplies the result the encoder
/// frames.
void probe_codec(const std::vector<std::string>& json_frames,
                 const std::vector<std::string>& binary_frames,
                 const man::engine::FixedNetwork& engine,
                 RunResult& result);

/// The serve/http and load-generator metrics of a short open-loop run
/// of `engine` behind an HttpServer — what the replay workloads'
/// traced run reports for the layers they do not otherwise touch.
void probe_serving(man::apps::AppId app,
                   const std::shared_ptr<const man::engine::FixedNetwork>& engine,
                   std::uint64_t seed, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
