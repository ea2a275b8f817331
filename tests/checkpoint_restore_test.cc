/// Kill-and-restore differential testing of the checkpoint subsystem: an
/// engine snapshotted mid-stream and rebuilt from the file must emit
/// byte-identical releases to the uninterrupted run, across the mining-fuzz
/// stream grid, every scheme, threads=1 and threads=8 engines, and
/// randomized kill points — the bit-identical-resume guarantee of
/// DESIGN.md §10. Corruption cases (truncation, bit flips, wrong magic,
/// config mismatch) must fail with a clean Status and leave the snapshot
/// file untouched.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/release_log.h"
#include "core/stream_engine.h"
#include "persist/checkpoint.h"
#include "persist/engine_checkpoint.h"
#include "persist/serializer.h"
#include "random_stream.h"

namespace butterfly {
namespace {

using testutil::kCases;
using testutil::RandomStream;
using testutil::StreamCase;

ButterflyConfig MakeConfig(const StreamCase& param, int threads) {
  return testutil::MakeCaseConfig(param, threads);
}

bool IsReleasePoint(const StreamCase& param, size_t fed) {
  return fed >= param.window && (fed - param.window) % 10 == 0;
}

/// The byte-exact public artifact of one release — the comparison unit of
/// the bit-identical-resume guarantee.
std::string ReleaseBytes(size_t fed, const SanitizedOutput& release) {
  std::ostringstream out;
  EXPECT_TRUE(WriteRelease(&out, "r" + std::to_string(fed), release).ok());
  return out.str();
}

std::vector<std::string> RunUninterrupted(const StreamCase& param,
                                          int threads) {
  auto engine =
      StreamPrivacyEngine::Create(param.window, MakeConfig(param, threads));
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

/// Runs the same schedule but kills the engine after `cut` records: the
/// state is checkpointed to a file, the engine destroyed, and a new one
/// loaded from the file to finish the stream.
std::vector<std::string> RunWithRestart(const StreamCase& param, int threads,
                                        size_t cut, const std::string& path) {
  const std::vector<Transaction> stream = RandomStream(param);
  std::vector<std::string> releases;
  {
    auto engine =
        StreamPrivacyEngine::Create(param.window, MakeConfig(param, threads));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    for (size_t i = 0; i < cut; ++i) {
      engine->Append(stream[i]);
      if (IsReleasePoint(param, i + 1)) {
        releases.push_back(ReleaseBytes(i + 1, engine->Release().output));
      }
    }
    persist::CheckpointWriteStats stats;
    Status saved = persist::SaveEngineCheckpoint(*engine, path, &stats);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    EXPECT_GT(stats.bytes, 0u);
  }  // original engine dies here

  auto restored = persist::LoadEngineCheckpoint(path);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  if (!restored.ok()) return releases;
  Status valid = restored->miner().Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(restored->miner().window().stream_position(),
            static_cast<Tid>(cut));
  for (size_t i = cut; i < stream.size(); ++i) {
    restored->Append(stream[i]);
    if (IsReleasePoint(param, i + 1)) {
      releases.push_back(ReleaseBytes(i + 1, restored->Release().output));
    }
  }
  return releases;
}

std::string TempPath(const std::string& name) {
  // Keyed by pid: this source builds into two binaries (plain + ASAN), and
  // fixed names race when ctest runs them concurrently.
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

class CheckpointRestoreTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(CheckpointRestoreTest, ResumeIsBitIdenticalAtRandomKillPoints) {
  const StreamCase param = GetParam();
  for (int threads : {1, 8}) {
    const std::vector<std::string> expected =
        RunUninterrupted(param, threads);
    ASSERT_FALSE(expected.empty());

    // Randomized kill points, including before the window first fills and
    // right on top of a release.
    Rng rng(param.seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<size_t> cuts = {
        static_cast<size_t>(
            rng.UniformInt(1, static_cast<int>(param.window) - 1)),
        static_cast<size_t>(rng.UniformInt(static_cast<int>(param.window),
                                           static_cast<int>(param.records))),
        param.window + 10,  // exactly a release point
    };
    for (size_t cut : cuts) {
      const std::string path = TempPath("bfly_ckpt_resume.ckpt");
      std::vector<std::string> actual =
          RunWithRestart(param, threads, cut, path);
      EXPECT_EQ(actual, expected)
          << "threads=" << threads << " cut=" << cut;
      std::remove(path.c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CheckpointRestoreTest,
                         ::testing::ValuesIn(kCases));

TEST(CheckpointFileTest, RepeatedSavesAtomicallyReplace) {
  const StreamCase param = kCases[0];
  const std::string path = TempPath("bfly_ckpt_replace.ckpt");
  const std::vector<Transaction> stream = RandomStream(param);
  auto engine = StreamPrivacyEngine::Create(param.window, MakeConfig(param, 1));
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    engine->Append(stream[i]);
    if (IsReleasePoint(param, i + 1)) {
      (void)engine->Release();
      ASSERT_TRUE(persist::SaveEngineCheckpoint(*engine, path).ok());
    }
  }
  // The file holds the newest snapshot.
  auto restored = persist::LoadEngineCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->miner().window().stream_position(),
            engine->miner().window().stream_position());
  std::remove(path.c_str());
}

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const StreamCase param = kCases[1];
    path_ = TempPath("bfly_ckpt_corrupt.ckpt");
    const std::vector<Transaction> stream = RandomStream(param);
    auto engine =
        StreamPrivacyEngine::Create(param.window, MakeConfig(param, 1));
    ASSERT_TRUE(engine.ok());
    for (const Transaction& t : stream) engine->Append(t);
    (void)engine->Release();
    ASSERT_TRUE(persist::SaveEngineCheckpoint(*engine, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes_ = buffer.str();
    ASSERT_GT(bytes_.size(), 24u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(CheckpointCorruptionTest, BitFlipFailsCleanlyAndFileSurvives) {
  // Flip one payload byte: CRC must catch it with a clean error.
  std::string corrupt = bytes_;
  corrupt[corrupt.size() / 2] ^= 0x40;
  WriteBytes(corrupt);
  auto restored = persist::LoadEngineCheckpoint(path_);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kIOError);

  // A failed load never modifies the file: restoring the byte restores the
  // snapshot.
  WriteBytes(bytes_);
  EXPECT_TRUE(persist::LoadEngineCheckpoint(path_).ok());
}

TEST_F(CheckpointCorruptionTest, TruncationFailsCleanly) {
  WriteBytes(bytes_.substr(0, bytes_.size() / 2));
  auto restored = persist::LoadEngineCheckpoint(path_);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kIOError);

  WriteBytes(bytes_.substr(0, 10));  // shorter than the fixed header
  EXPECT_FALSE(persist::LoadEngineCheckpoint(path_).ok());
}

TEST_F(CheckpointCorruptionTest, BadMagicAndMissingFileFailCleanly) {
  std::string corrupt = bytes_;
  corrupt[0] = 'X';
  WriteBytes(corrupt);
  auto restored = persist::LoadEngineCheckpoint(path_);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(
      persist::LoadEngineCheckpoint(TempPath("bfly_no_such.ckpt")).ok());
}

TEST_F(CheckpointCorruptionTest, ConfigMismatchIsRejectedByInPlaceRestore) {
  auto payload = persist::ReadCheckpointFile(path_);
  ASSERT_TRUE(payload.ok());

  // Same capacity, different min_support: in-place Restore refuses rather
  // than resuming under a silently different privacy contract.
  StreamCase param = kCases[1];
  ButterflyConfig other = MakeConfig(param, 1);
  other.min_support += 1;
  auto engine = StreamPrivacyEngine::Create(param.window, other);
  ASSERT_TRUE(engine.ok());
  persist::CheckpointReader reader(*payload);
  Status status = engine->Restore(&reader);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // FromCheckpoint takes the config from the file instead and succeeds.
  persist::CheckpointReader fresh(*payload);
  auto from_file = StreamPrivacyEngine::FromCheckpoint(&fresh);
  EXPECT_TRUE(from_file.ok()) << from_file.status().ToString();
}

TEST(ReleaseLogRecoveryTest, TruncatesTornTrailingBlock) {
  const std::string path = TempPath("bfly_torn_release.log");
  std::remove(path.c_str());

  // No file at all: a fresh log, zero complete releases.
  auto fresh = RecoverReleaseLog(path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 0u);

  SanitizedOutput release(/*min_support=*/2, /*window_size=*/8);
  release.Add({Itemset{1, 2}, 5, 0.0, 0.0});
  release.Add({Itemset{3}, 4, 0.0, 0.0});
  release.Seal();
  ASSERT_TRUE(AppendReleaseToFile(path, "w1", release).ok());
  ASSERT_TRUE(AppendReleaseToFile(path, "w2", release).ok());

  // Simulate a crash mid-append: a header that promises two items but wrote
  // only one, with no terminating blank line.
  {
    std::ofstream out(path, std::ios::app);
    out << "#release w3 8 2 2\n1 2 5\n";
  }
  auto recovered = RecoverReleaseLog(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 2u);

  // The recovered log parses cleanly and appending resumes.
  auto logs = ReadReleasesFromFile(path);
  ASSERT_TRUE(logs.ok());
  ASSERT_EQ(logs->size(), 2u);
  ASSERT_TRUE(AppendReleaseToFile(path, "w3", release).ok());
  logs = ReadReleasesFromFile(path);
  ASSERT_TRUE(logs.ok());
  EXPECT_EQ(logs->size(), 3u);

  // A clean log is left byte-for-byte alone.
  auto again = RecoverReleaseLog(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 3u);
  logs = ReadReleasesFromFile(path);
  ASSERT_TRUE(logs.ok());
  EXPECT_EQ(logs->size(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace butterfly
