// Plan-artifact save/load: the mmap'ed engine must be bit-identical
// to the compiled one through every kernel backend, dense and conv,
// at both paper weight widths — and every corruption mode (torn
// file, flipped payload byte, version bump, wrong config key) must be
// rejected with SerializationError, never served. Also exercises the
// EngineCache disk tier, including fallback from a corrupt artifact
// to a fresh compile + republish, and the atomic-publish guarantee
// under an interleaved reader.
#include "man/artifact/plan_artifact.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/serve/engine_cache.h"
#include "man/util/rng.h"
#include "man/util/serialize.h"

namespace man::artifact {
namespace {

using man::backend::all_backends;
using man::backend::backend_for;
using man::backend::BackendKind;
using man::core::AlphabetSet;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ActivationLayer;
using man::nn::AvgPool2D;
using man::nn::Conv2D;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;
using man::util::SerializationError;

Network make_mlp(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(16, 8).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(8, 4).init_xavier(rng);
  return net;
}

Network make_cnn(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Conv2D>(1, 3, 3, 8, 8).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<AvgPool2D>(3, 6, 6, 2);
  net.add<Dense>(27, 5).init_xavier(rng);
  return net;
}

/// Compiles an ASM engine over the four-alphabet set (or the
/// conventional baseline when `alphabets` is 0).
FixedNetwork compile(Network net, int bits, std::size_t alphabets) {
  const QuantSpec spec = QuantSpec::for_bits(bits);
  if (alphabets == 0) {
    return FixedNetwork(net, spec,
                        LayerAlphabetPlan::conventional(net.num_weight_layers()));
  }
  const AlphabetSet set = AlphabetSet::first_n(alphabets);
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  return FixedNetwork(
      net, spec, LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
}

std::vector<float> make_pixels(std::size_t n, std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> pixels(n);
  for (float& p : pixels) {
    p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  return pixels;
}

std::vector<std::int64_t> infer_raw(const FixedNetwork& engine,
                                    const std::vector<float>& pixels,
                                    const man::backend::KernelBackend& kernel) {
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  std::vector<std::int64_t> raw(engine.output_size());
  engine.infer_into(pixels, raw, stats, scratch, kernel);
  return raw;
}

class PlanArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("man_plan_artifact_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

// The acceptance bar: for dense and conv engines at both paper
// widths, a loaded artifact produces bit-identical raw accumulators
// through every registered backend.
class PlanArtifactBitIdentity : public ::testing::TestWithParam<int> {
 protected:
  std::filesystem::path dir_ = std::filesystem::temp_directory_path() /
                               ("man_plan_artifact_bits_" +
                                std::to_string(::getpid()));
};

TEST_P(PlanArtifactBitIdentity, LoadedEngineMatchesEveryBackend) {
  const int bits = GetParam();
  std::filesystem::create_directories(dir_);
  struct Case {
    const char* label;
    Network net;
    std::size_t input;
    std::size_t alphabets;
  };
  Case cases[] = {
      {"mlp_asm4", make_mlp(100 + static_cast<std::uint64_t>(bits)), 16, 4},
      {"mlp_exact", make_mlp(200 + static_cast<std::uint64_t>(bits)), 16, 0},
      {"cnn_asm4", make_cnn(300 + static_cast<std::uint64_t>(bits)), 64, 4},
      {"cnn_exact", make_cnn(400 + static_cast<std::uint64_t>(bits)), 64, 0},
  };
  for (auto& c : cases) {
    const FixedNetwork original(compile(std::move(c.net), bits, c.alphabets));
    const std::string key = std::string(c.label) + "|bits=" +
                            std::to_string(bits);
    const std::string file = artifact_path(dir_.string(), key);
    save_engine(original, file, key);
    const auto loaded = load_engine(file, key);

    const auto pixels =
        make_pixels(c.input, 500 + static_cast<std::uint64_t>(bits));
    const auto reference =
        infer_raw(original, pixels, backend_for(BackendKind::kScalar));
    for (const auto* backend : all_backends()) {
      EXPECT_EQ(infer_raw(*loaded, pixels, *backend), reference)
          << c.label << " bits=" << bits << " backend=" << backend->name();
    }
  }
  std::filesystem::remove_all(dir_);
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, PlanArtifactBitIdentity,
                         ::testing::Values(8, 12));

TEST_F(PlanArtifactTest, TruncatedFileRejected) {
  const FixedNetwork engine(compile(make_mlp(1), 8, 4));
  const std::string file = path("engine.plan");
  save_engine(engine, file, "key");
  const auto full_size = std::filesystem::file_size(file);
  std::filesystem::resize_file(file, full_size - 1);
  EXPECT_THROW((void)load_engine(file, "key"), SerializationError);
  std::filesystem::resize_file(file, 16);  // torn mid-header
  EXPECT_THROW((void)load_engine(file, "key"), SerializationError);
}

TEST_F(PlanArtifactTest, FlippedPayloadByteRejected) {
  const FixedNetwork engine(compile(make_mlp(2), 8, 4));
  const std::string file = path("engine.plan");
  save_engine(engine, file, "key");
  const auto full_size = std::filesystem::file_size(file);
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(full_size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(full_size / 2));
    f.write(&byte, 1);
  }
  EXPECT_THROW((void)load_engine(file, "key"), SerializationError);
}

// Both the previous format (version 1 carried per-plan conv tile
// shapes) and a future one are rejected.
TEST_F(PlanArtifactTest, VersionBumpRejected) {
  const FixedNetwork engine(compile(make_cnn(3), 8, 4));
  const std::string file = path("engine.plan");
  for (const std::uint32_t version : {1u, kArtifactVersion + 1}) {
    save_engine(engine, file, "key");
    {
      // The version field sits at byte 8, right after the magic.
      std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(8);
      f.write(reinterpret_cast<const char*>(&version), sizeof version);
    }
    EXPECT_THROW((void)load_engine(file, "key"), SerializationError)
        << "version " << version;
  }
}

TEST_F(PlanArtifactTest, WrongConfigKeyAndMissingFileRejected) {
  const FixedNetwork engine(compile(make_mlp(4), 8, 4));
  const std::string file = path("engine.plan");
  save_engine(engine, file, "key-a");
  EXPECT_THROW((void)load_engine(file, "key-b"), SerializationError);
  EXPECT_THROW((void)load_engine(path("absent.plan"), "key-a"),
               SerializationError);
}

// Atomic publish: a reader looping over load_engine while a writer
// republishes the same artifact must only ever observe complete,
// valid files — every load either succeeds bit-identically or (never,
// with rename() publishing) fails.
TEST_F(PlanArtifactTest, InterleavedReaderNeverSeesTornArtifact) {
  const FixedNetwork engine(compile(make_mlp(5), 8, 4));
  const std::string file = path("engine.plan");
  save_engine(engine, file, "key");
  const auto pixels = make_pixels(16, 6);
  const auto reference =
      infer_raw(engine, pixels, backend_for(BackendKind::kScalar));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    while (!stop.load()) {
      try {
        const auto loaded = load_engine(file, "key");
        if (infer_raw(*loaded, pixels, backend_for(BackendKind::kScalar)) !=
            reference) {
          failures.fetch_add(1);
        }
      } catch (const SerializationError&) {
        failures.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < 50; ++i) save_engine(engine, file, "key");
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

// EngineCache disk tier: a second cache (a "cold process") must serve
// bit-identically from the published artifact, and a corrupt artifact
// must fall back to compiling and republish a good one.
TEST_F(PlanArtifactTest, EngineCacheDiskTierRoundTripsAndSelfHeals) {
  man::serve::EngineSpec spec;
  spec.app = man::apps::AppId::kDigitMlp8;
  spec.alphabets = 4;
  spec.trained = false;  // deterministic init: identical across caches

  const std::string plan_dir = path("plans");
  const std::string model_dir = path("models");
  man::serve::EngineCache warm(model_dir, plan_dir);
  const auto built = warm.get(spec);
  const std::string file = artifact_path(plan_dir, spec.key());
  ASSERT_TRUE(std::filesystem::exists(file));

  const auto pixels = make_pixels(built->input_size(), 7);
  const auto reference =
      infer_raw(*built, pixels, backend_for(BackendKind::kScalar));

  man::serve::EngineCache cold(model_dir, plan_dir);
  const auto loaded = cold.get(spec);
  EXPECT_EQ(infer_raw(*loaded, pixels, backend_for(BackendKind::kScalar)),
            reference);

  // Corrupt the artifact: the tier must fall back to a fresh compile
  // (still bit-identical) and republish a loadable artifact.
  std::filesystem::resize_file(file, std::filesystem::file_size(file) / 2);
  man::serve::EngineCache healed(model_dir, plan_dir);
  const auto rebuilt = healed.get(spec);
  EXPECT_EQ(infer_raw(*rebuilt, pixels, backend_for(BackendKind::kScalar)),
            reference);
  EXPECT_NO_THROW((void)load_engine(file, spec.key()));
}

}  // namespace
}  // namespace man::artifact
