/// Conformance suite for ReleasePolicy backends: every policy — Butterfly
/// and the three DP mechanisms — must honor the interface contract of
/// policy/release_policy.h. The suite pins, per backend:
///
///  * determinism: byte-identical release logs across thread counts;
///  * sealed outputs: every release arrives Seal()ed (itemset-sorted);
///  * checkpointing: kill-and-restore at arbitrary cut points resumes with
///    byte-identical releases, and a snapshot taken under one policy is
///    rejected by an engine configured with another;
///  * the Butterfly backend is pure indirection: routing through the
///    ReleasePolicy interface emits exactly the bytes of a direct
///    ButterflyEngine replay;
///  * the continual backend's dyadic cover is an exact partition, and the
///    DP budget accounting matches each backend's composition model.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/butterfly.h"
#include "core/release_log.h"
#include "core/stream_engine.h"
#include "persist/checkpoint.h"
#include "persist/engine_checkpoint.h"
#include "persist/serializer.h"
#include "policy/continual_policy.h"
#include "policy/release_policy.h"
#include "random_stream.h"

namespace butterfly {
namespace {

using testutil::kCases;
using testutil::RandomStream;
using testutil::StreamCase;

constexpr ReleasePolicyKind kAllPolicies[] = {
    ReleasePolicyKind::kButterfly,
    ReleasePolicyKind::kPrivBasis,
    ReleasePolicyKind::kContinual,
    ReleasePolicyKind::kHeavyHitter,
};

ButterflyConfig PolicyConfig(ReleasePolicyKind kind, const StreamCase& param,
                             int threads) {
  ButterflyConfig config = testutil::MakeCaseConfig(param, threads);
  config.policy = kind;
  config.policy_epsilon = 1.0;
  config.policy_top_k = 8;
  return config;
}

bool IsReleasePoint(const StreamCase& param, size_t fed) {
  return fed >= param.window && (fed - param.window) % 10 == 0;
}

std::string ReleaseBytes(size_t fed, const SanitizedOutput& release) {
  std::ostringstream out;
  EXPECT_TRUE(WriteRelease(&out, "r" + std::to_string(fed), release).ok());
  return out.str();
}

/// One full run: feed the case's stream, release on the case schedule,
/// return the byte-exact release log (one entry per release).
std::vector<std::string> RunLog(ReleasePolicyKind kind,
                                const StreamCase& param, int threads) {
  auto engine = StreamPrivacyEngine::Create(param.window,
                                            PolicyConfig(kind, param, threads));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<std::string> releases;
  const std::vector<Transaction> stream = RandomStream(param);
  for (size_t i = 0; i < stream.size(); ++i) {
    engine->Append(stream[i]);
    if (IsReleasePoint(param, i + 1)) {
      releases.push_back(ReleaseBytes(i + 1, engine->Release().output));
    }
  }
  return releases;
}

std::string TempPath(const std::string& name) {
  // Pid-keyed so parallel ctest binaries sharing TempDir never collide.
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

class PolicyGridTest
    : public ::testing::TestWithParam<std::tuple<ReleasePolicyKind, int>> {};

// The core determinism contract: one policy's release log is a pure
// function of (config, stream) — the thread count must not leak into the
// bytes.
TEST_P(PolicyGridTest, LogsAreByteIdenticalAcrossThreads) {
  const auto [kind, case_index] = GetParam();
  const StreamCase param = kCases[case_index];
  const std::vector<std::string> reference = RunLog(kind, param, 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(RunLog(kind, param, 8), reference)
      << "threads=8 diverged for " << ReleasePolicyName(kind);
}

// Every release must arrive Seal()ed: strictly itemset-sorted, supports
// within [0, H]. The release log and the adversary tooling assume both.
TEST_P(PolicyGridTest, ReleasesAreSealedAndClamped) {
  const auto [kind, case_index] = GetParam();
  const StreamCase param = kCases[case_index];
  auto engine =
      StreamPrivacyEngine::Create(param.window, PolicyConfig(kind, param, 1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<Transaction> stream = RandomStream(param);
  size_t checked = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    engine->Append(stream[i]);
    if (!IsReleasePoint(param, i + 1)) continue;
    const SanitizedOutput release = engine->Release().output;
    const auto& items = release.items();
    for (size_t j = 0; j < items.size(); ++j) {
      if (j > 0) {
        EXPECT_TRUE(items[j - 1].itemset < items[j].itemset)
            << ReleasePolicyName(kind) << " release not itemset-sorted";
      }
      EXPECT_GE(items[j].sanitized_support, 0);
      EXPECT_LE(items[j].sanitized_support,
                static_cast<Support>(param.window));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << "case released nothing; grid hole";
}

// Kill-and-restore: snapshot mid-stream, destroy the engine, rebuild from
// the file, finish the stream — the tail releases must be byte-identical to
// the uninterrupted run, for every backend's checkpoint section.
TEST_P(PolicyGridTest, CheckpointRestoreResumesByteIdentically) {
  const auto [kind, case_index] = GetParam();
  const StreamCase param = kCases[case_index];
  const std::vector<std::string> expected = RunLog(kind, param, 1);
  const std::vector<Transaction> stream = RandomStream(param);
  const std::string path =
      TempPath("bfly_policy_resume_" + ReleasePolicyName(kind) + ".ckpt");
  for (size_t cut : {param.window / 2, param.window + 15}) {
    std::vector<std::string> actual;
    {
      auto engine = StreamPrivacyEngine::Create(
          param.window, PolicyConfig(kind, param, 1));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      for (size_t i = 0; i < cut; ++i) {
        engine->Append(stream[i]);
        if (IsReleasePoint(param, i + 1)) {
          actual.push_back(ReleaseBytes(i + 1, engine->Release().output));
        }
      }
      ASSERT_TRUE(persist::SaveEngineCheckpoint(*engine, path).ok());
    }
    auto restored = persist::LoadEngineCheckpoint(path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->config().policy, kind);
    for (size_t i = cut; i < stream.size(); ++i) {
      restored->Append(stream[i]);
      if (IsReleasePoint(param, i + 1)) {
        actual.push_back(ReleaseBytes(i + 1, restored->Release().output));
      }
    }
    EXPECT_EQ(actual, expected)
        << ReleasePolicyName(kind) << " cut=" << cut;
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PolicyGridTest,
    ::testing::Combine(::testing::ValuesIn(kAllPolicies),
                       ::testing::Values(0, 5)),
    [](const auto& suite_info) {
      return ReleasePolicyName(std::get<0>(suite_info.param)) + "_case" +
             std::to_string(std::get<1>(suite_info.param));
    });

// A snapshot taken under one policy must not restore into an engine
// configured with another: the CONF section carries the policy byte and
// knobs, and Restore bit-compares them before touching any state.
TEST(PolicyCheckpointTest, PolicyIdMismatchIsRejected) {
  const StreamCase param = kCases[0];
  const std::vector<Transaction> stream = RandomStream(param);
  const std::string path = TempPath("bfly_policy_mismatch.ckpt");
  {
    auto engine = StreamPrivacyEngine::Create(
        param.window, PolicyConfig(ReleasePolicyKind::kPrivBasis, param, 1));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (size_t i = 0; i < param.window + 10; ++i) {
      engine->Append(stream[i % stream.size()]);
    }
    (void)engine->Release();
    ASSERT_TRUE(persist::SaveEngineCheckpoint(*engine, path).ok());
  }
  auto payload = persist::ReadCheckpointFile(path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  for (ReleasePolicyKind other :
       {ReleasePolicyKind::kButterfly, ReleasePolicyKind::kContinual,
        ReleasePolicyKind::kHeavyHitter}) {
    auto engine = StreamPrivacyEngine::Create(param.window,
                                              PolicyConfig(other, param, 1));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    persist::CheckpointReader reader(*payload);
    Status restored = engine->Restore(&reader);
    EXPECT_FALSE(restored.ok())
        << "privbasis snapshot restored into " << ReleasePolicyName(other);
  }
  // Same policy, different knob: also a config mismatch.
  {
    ButterflyConfig config =
        PolicyConfig(ReleasePolicyKind::kPrivBasis, param, 1);
    config.policy_epsilon = 2.0;
    auto engine = StreamPrivacyEngine::Create(param.window, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    persist::CheckpointReader reader(*payload);
    EXPECT_FALSE(engine->Restore(&reader).ok());
  }
  std::remove(path.c_str());
}

// The Butterfly backend is pure indirection: the same MiningOutput sequence
// pushed through the ReleasePolicy interface and through a bare
// ButterflyEngine must produce identical SanitizedOutputs, release after
// release (epochs, caches, and republish state advancing in lockstep).
TEST(ButterflyAdapterTest, InterfaceIsByteIdenticalToDirectEngine) {
  const StreamCase param = kCases[1];
  ButterflyConfig config =
      PolicyConfig(ReleasePolicyKind::kButterfly, param, 1);
  std::unique_ptr<ReleasePolicy> policy = MakeReleasePolicy(config);
  ASSERT_EQ(policy->kind(), ReleasePolicyKind::kButterfly);
  ButterflyEngine direct(config);

  Rng rng(param.seed);
  const Support window = static_cast<Support>(param.window);
  for (int release = 0; release < 6; ++release) {
    MiningOutput frequent(config.min_support);
    // A drifting synthetic frequent set: subsets of a small alphabet with
    // supports in [C, H], some itemsets entering/leaving across releases.
    for (int mask = 1; mask < 64; ++mask) {
      if (rng.Bernoulli(0.7)) continue;
      std::vector<Item> items;
      for (Item a = 0; a < 6; ++a) {
        if (mask & (1 << a)) items.push_back(a);
      }
      frequent.Add(Itemset(std::move(items)),
                   rng.UniformInt(config.min_support, window));
    }
    frequent.Seal();

    WindowContext ctx;
    ctx.window_size = window;
    ctx.stream_position = param.window + 10u * static_cast<uint64_t>(release);
    ctx.fecs = nullptr;

    PolicyStats stats;
    const SanitizedOutput via_policy = policy->Release(frequent, ctx, &stats);
    const SanitizedOutput via_engine = direct.Sanitize(frequent, window);
    EXPECT_EQ(via_policy.items(), via_engine.items())
        << "release " << release << " diverged";
    EXPECT_EQ(stats.epoch, static_cast<uint64_t>(release));
    EXPECT_EQ(stats.epsilon_spent, 0.0) << "Butterfly spends no DP budget";
  }
  EXPECT_EQ(policy->epoch(), direct.epoch());
}

// Dyadic cover: an exact, aligned, largest-first partition of [begin, end),
// at most 2·levels nodes, stable under the node-key encoding
// (level << 56 | index).
TEST(ContinualPolicyTest, DyadicCoverPartitionsExactly) {
  EXPECT_TRUE(DyadicCover(7, 7).empty());
  Rng rng(0xdecaf);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t begin = static_cast<uint64_t>(rng.UniformInt(0, 5000));
    const uint64_t len = static_cast<uint64_t>(rng.UniformInt(1, 4096));
    const uint64_t end = begin + len;
    const std::vector<uint64_t> cover = DyadicCover(begin, end);
    uint64_t pos = begin;
    for (uint64_t key : cover) {
      const uint64_t level = key >> 56;
      const uint64_t index = key & ((1ull << 56) - 1);
      const uint64_t node_begin = index << level;
      const uint64_t node_len = 1ull << level;
      EXPECT_EQ(node_begin, pos) << "cover gap at " << pos;
      EXPECT_EQ(node_begin % node_len, 0u) << "unaligned node";
      pos = node_begin + node_len;
    }
    EXPECT_EQ(pos, end) << "cover stops short";
    // ⌈log2⌉ rising + falling runs bound the greedy cover size.
    EXPECT_LE(cover.size(), 2 * 13u) << "begin=" << begin << " len=" << len;
  }
}

// Budget accounting models: naive additive composition for the one-shot
// mechanisms, constant ε for the continual estimator.
TEST(DpAccountingTest, CumulativeEpsilonFollowsCompositionModel) {
  const StreamCase param = kCases[0];
  const std::vector<Transaction> stream = RandomStream(param);
  for (ReleasePolicyKind kind :
       {ReleasePolicyKind::kPrivBasis, ReleasePolicyKind::kContinual,
        ReleasePolicyKind::kHeavyHitter}) {
    auto engine =
        StreamPrivacyEngine::Create(param.window, PolicyConfig(kind, param, 1));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    uint64_t releases = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      engine->Append(stream[i]);
      if (!IsReleasePoint(param, i + 1)) continue;
      const ReleaseResult result = engine->Release();
      ++releases;
      EXPECT_DOUBLE_EQ(result.stats.epsilon_spent, 1.0);
      const double want = kind == ReleasePolicyKind::kContinual
                              ? 1.0
                              : static_cast<double>(releases);
      EXPECT_DOUBLE_EQ(result.stats.epsilon_cumulative, want)
          << ReleasePolicyName(kind) << " release " << releases;
      EXPECT_EQ(engine->release_epoch(), releases);
    }
    ASSERT_GT(releases, 2u);
  }
}

}  // namespace
}  // namespace butterfly
