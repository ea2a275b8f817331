/// Kill-and-restore differential testing of the checkpoint subsystem: an
/// engine snapshotted mid-stream and rebuilt from the file must emit
/// byte-identical releases to the uninterrupted run, across the mining-fuzz
/// stream grid, every scheme, threads=1 and threads=8 engines, and
/// randomized kill points — the bit-identical-resume guarantee of
/// DESIGN.md §10. Corruption cases (truncation, bit flips, wrong magic,
/// config mismatch, a record holding the reserved item id, a config or
/// window that Create refuses) must fail with a clean Status and leave the
/// snapshot file untouched, and a failed in-place restore must leave the
/// engine as it was.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
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

  // Same capacity, one field changed: in-place Restore refuses rather than
  // resuming under a silently different privacy contract.
  const StreamCase param = kCases[1];
  const std::vector<std::pair<std::string, void (*)(ButterflyConfig*)>>
      edits = {
          {"min_support", [](ButterflyConfig* c) { c->min_support += 1; }},
          {"seed", [](ButterflyConfig* c) { c->seed += 1; }},
          {"epsilon", [](ButterflyConfig* c) { c->epsilon *= 2; }},
          {"hybrid_index",
           [](ButterflyConfig* c) { c->hybrid_index = !c->hybrid_index; }},
          {"order_opt.gamma",
           [](ButterflyConfig* c) { c->order_opt.gamma += 1; }},
          {"policy_top_k", [](ButterflyConfig* c) { c->policy_top_k += 1; }},
      };
  for (const auto& [field, edit] : edits) {
    ButterflyConfig other = MakeConfig(param, 1);
    edit(&other);
    auto engine = StreamPrivacyEngine::Create(param.window, other);
    ASSERT_TRUE(engine.ok()) << field << ": " << engine.status().ToString();
    persist::CheckpointReader reader(*payload);
    Status status = engine->Restore(&reader);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
  }

  // FromCheckpoint takes the config from the file instead and succeeds.
  persist::CheckpointReader fresh(*payload);
  auto from_file = StreamPrivacyEngine::FromCheckpoint(&fresh);
  EXPECT_TRUE(from_file.ok()) << from_file.status().ToString();
}

TEST(InPlaceRestoreTest, ThreadCountIsNotPartOfTheSnapshot) {
  // No release reads `threads`, and the snapshot does not carry it: a
  // threads=8 snapshot restores in place into a threads=1 engine, which
  // resumes byte-identically.
  const StreamCase param = kCases[0];
  const std::vector<std::string> expected = RunUninterrupted(param, 1);
  const std::vector<Transaction> stream = RandomStream(param);
  const size_t cut = param.window + 10;
  std::vector<std::string> actual;

  auto source = StreamPrivacyEngine::Create(param.window, MakeConfig(param, 8));
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  for (size_t i = 0; i < cut; ++i) {
    source->Append(stream[i]);
    if (IsReleasePoint(param, i + 1)) {
      actual.push_back(ReleaseBytes(i + 1, source->Release().output));
    }
  }
  persist::CheckpointWriter writer;
  source->Checkpoint(&writer);

  auto target = StreamPrivacyEngine::Create(param.window, MakeConfig(param, 1));
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  persist::CheckpointReader reader(writer.data());
  Status status = target->Restore(&reader);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(target->config().threads, 1);
  for (size_t i = cut; i < stream.size(); ++i) {
    target->Append(stream[i]);
    if (IsReleasePoint(param, i + 1)) {
      actual.push_back(ReleaseBytes(i + 1, target->Release().output));
    }
  }
  EXPECT_EQ(actual, expected);
}

/// A failed in-place restore leaves the engine exactly as it was, under
/// either row store (the parameter is ButterflyConfig::hybrid_index).
class FailedRestoreTest : public ::testing::TestWithParam<bool> {};

TEST_P(FailedRestoreTest, LeavesTheEngineAsItWas) {
  const StreamCase param = kCases[3];
  ButterflyConfig config = MakeConfig(param, 1);
  config.hybrid_index = GetParam();
  const std::vector<Transaction> stream = RandomStream(param);
  const auto feed = [&](StreamPrivacyEngine* engine, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      engine->Append(stream[i]);
      if (IsReleasePoint(param, i + 1)) (void)engine->Release();
    }
  };

  // A snapshot from further down the stream, cut short inside its last
  // section (BFLE): the config and window sections before it parse.
  auto source = StreamPrivacyEngine::Create(param.window, config);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  const size_t late = param.records - 15;
  feed(&*source, 0, late);
  persist::CheckpointWriter writer;
  source->Checkpoint(&writer);
  std::string payload = writer.data();
  payload.pop_back();

  auto target = StreamPrivacyEngine::Create(param.window, config);
  auto twin = StreamPrivacyEngine::Create(param.window, config);
  ASSERT_TRUE(target.ok() && twin.ok());
  const size_t early = param.window + 55;
  feed(&*target, 0, early);
  feed(&*twin, 0, early);
  ASSERT_NE(target->release_epoch(), source->release_epoch());

  persist::CheckpointReader reader(payload);
  EXPECT_FALSE(target->Restore(&reader).ok());

  EXPECT_EQ(target->miner().window().stream_position(),
            twin->miner().window().stream_position());
  EXPECT_EQ(target->release_epoch(), twin->release_epoch());
  Status valid = target->miner().Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  size_t fed = early;
  while (!IsReleasePoint(param, fed)) {
    target->Append(stream[fed]);
    twin->Append(stream[fed]);
    ++fed;
  }
  EXPECT_EQ(ReleaseBytes(fed, target->Release().output),
            ReleaseBytes(fed, twin->Release().output));
}

INSTANTIATE_TEST_SUITE_P(RowStores, FailedRestoreTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& row_store) {
                           return row_store.param ? "Hybrid" : "Dense";
                         });

/// kInvalidItem marks the CET root. Restore builds the tree from the
/// window, so a snapshot whose records hold it must fail to restore: four
/// records {1, 2, kInvalidItem} at H = 4, C = 2 give the tree a frequent
/// node that passes for the root, and the next Append reads out of bounds.
/// The republish cache's itemsets go through the same reader.
class ReservedItemRestoreTest : public ::testing::Test {
 protected:
  /// Written in place of kInvalidItem, then patched to it.
  static constexpr Item kStandIn = 0x00C0FFEE;

  static ButterflyConfig Config() {
    ButterflyConfig config;
    config.min_support = 2;
    config.vulnerable_support = 1;
    config.epsilon = 0.1;
    config.delta = 0.4;
    return config;
  }

  void SetUp() override {
    auto engine = StreamPrivacyEngine::Create(4, Config());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (int i = 0; i < 4; ++i) {
      engine->Append(Transaction(0, Itemset{1, 2, kStandIn}));
    }
    (void)engine->Release();  // the cache now pins itemsets with kStandIn
    persist::CheckpointWriter writer;
    engine->Checkpoint(&writer);
    saved_ = writer.data();

    persist::CheckpointWriter stand_in;
    stand_in.U32(kStandIn);
    const size_t policy_at = saved_.find("BFLE");  // the tag's bytes
    ASSERT_NE(policy_at, std::string::npos);
    for (size_t at = saved_.find(stand_in.data()); at != std::string::npos;
         at = saved_.find(stand_in.data(), at + 1)) {
      (at < policy_at ? window_at_ : cache_at_).push_back(at);
    }
    ASSERT_EQ(window_at_.size(), 4u);
    ASSERT_FALSE(cache_at_.empty());
  }

  /// The saved bytes with kInvalidItem written over kStandIn at \p offsets.
  std::string Patched(const std::vector<size_t>& offsets) const {
    std::string bytes = saved_;
    for (size_t at : offsets) bytes.replace(at, 4, std::string(4, '\xFF'));
    return bytes;
  }

  /// Restore, in place and from a file, must fail as a corrupt checkpoint.
  static void ExpectCorrupt(const std::string& payload) {
    auto engine = StreamPrivacyEngine::Create(4, Config());
    ASSERT_TRUE(engine.ok());
    persist::CheckpointReader reader(payload);
    Status status = engine->Restore(&reader);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("checkpoint corrupt"), std::string::npos)
        << status.ToString();

    const std::string path = TempPath("bfly_ckpt_reserved_item.ckpt");
    ASSERT_TRUE(persist::WriteCheckpointFile(path, payload).ok());
    auto loaded = persist::LoadEngineCheckpoint(path);
    EXPECT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("checkpoint corrupt"),
              std::string::npos)
        << loaded.status().ToString();
    std::remove(path.c_str());
  }

  std::string saved_;
  std::vector<size_t> window_at_;
  std::vector<size_t> cache_at_;
};

TEST_F(ReservedItemRestoreTest, UnpatchedSnapshotRestores) {
  persist::CheckpointReader reader(saved_);
  auto restored = StreamPrivacyEngine::FromCheckpoint(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Status valid = restored->miner().Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  restored->Append(Transaction(0, Itemset{1, 2}));
  EXPECT_TRUE(restored->miner().Validate().ok());
}

TEST_F(ReservedItemRestoreTest, WindowRecordsWithTheReservedItemAreCorrupt) {
  ExpectCorrupt(Patched(window_at_));
  ExpectCorrupt(Patched({window_at_.back()}));
}

TEST_F(ReservedItemRestoreTest, CachedItemsetWithTheReservedItemIsCorrupt) {
  ExpectCorrupt(Patched({cache_at_.back()}));
}

/// FromCheckpoint and LoadEngineCheckpoint build their engine through
/// Create, so a snapshot whose CONF or capacity holds a value Create refuses
/// fails with InvalidArgument: a DP state budget past kMaxOrderStates, which
/// would size the bias DP's tables without bound, and a hybrid window past
/// kMaxHybridWindow, which the index constructor would abort on.
TEST(OutOfRangeSnapshotTest, CreateRefusalsFailTheRestore) {
  /// Written as max_states, then patched.
  constexpr uint64_t kStandIn = 0x5EED5;
  ButterflyConfig config;
  config.min_support = 2;
  config.vulnerable_support = 1;
  config.epsilon = 0.1;
  config.delta = 0.4;
  config.scheme = ButterflyScheme::kOrderPreserving;
  config.hybrid_index = true;
  config.order_opt.max_states = kStandIn;
  auto engine = StreamPrivacyEngine::Create(4, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (int i = 0; i < 4; ++i) engine->Append(Transaction(0, Itemset{1, 2}));
  (void)engine->Release();
  persist::CheckpointWriter writer;
  engine->Checkpoint(&writer);
  const std::string saved = writer.data();

  const auto u64 = [](uint64_t v) {
    persist::CheckpointWriter w;
    w.U64(v);
    return w.data();
  };
  const size_t states_at = saved.find(u64(kStandIn), saved.find("CONF"));
  ASSERT_NE(states_at, std::string::npos);
  const size_t capacity_at = saved.find("SPE1") + 4;
  ASSERT_EQ(saved.substr(capacity_at, 8), u64(4));

  {
    persist::CheckpointReader reader(saved);
    auto restored = StreamPrivacyEngine::FromCheckpoint(&reader);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  }
  const std::string path = TempPath("bfly_ckpt_out_of_range.ckpt");
  for (const auto& [at, value] :
       {std::pair<size_t, uint64_t>{states_at, uint64_t{1} << 40},
        {capacity_at, kMaxHybridWindow + 1}}) {
    std::string patched = saved;
    patched.replace(at, 8, u64(value));
    persist::CheckpointReader reader(patched);
    auto restored = StreamPrivacyEngine::FromCheckpoint(&reader);
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << value << ": " << restored.status().ToString();

    ASSERT_TRUE(persist::WriteCheckpointFile(path, patched).ok());
    auto loaded = persist::LoadEngineCheckpoint(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << value << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
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
