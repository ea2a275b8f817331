/// Format-level tests of the persist substrate: primitive round-trips, the
/// CRC-32 implementation against its published test vector and a bitwise
/// reference, the CRC-guarded
/// file framing (magic / version / size / payload / CRC), the reader's
/// corruption guards, and the golden snapshot of the current format version
/// that pins the on-disk format — any byte-level change to the serialization
/// fails the golden test and forces an explicit format-version decision.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/stream_engine.h"
#include "persist/checkpoint.h"
#include "persist/engine_checkpoint.h"
#include "persist/serializer.h"

namespace butterfly {
namespace {

using persist::CheckpointReader;
using persist::CheckpointWriter;
using persist::Crc32;
using persist::SectionTag;

TEST(SerializerTest, PrimitivesRoundTrip) {
  CheckpointWriter writer;
  writer.U8(0xAB);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFull);
  writer.I64(-42);
  writer.F64(3.141592653589793);
  writer.F64(-0.0);
  writer.Bool(true);
  writer.Bool(false);
  writer.Str("butterfly");
  writer.Str("");

  CheckpointReader reader(writer.data());
  EXPECT_EQ(reader.U8(), 0xAB);
  EXPECT_EQ(reader.U32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.I64(), -42);
  EXPECT_EQ(reader.F64(), 3.141592653589793);
  EXPECT_TRUE(std::signbit(reader.F64()));  // -0.0 survives bit-exactly
  EXPECT_TRUE(reader.Bool());
  EXPECT_FALSE(reader.Bool());
  EXPECT_EQ(reader.Str(), "butterfly");
  EXPECT_EQ(reader.Str(), "");
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(reader.ok());
}

TEST(SerializerTest, NanRoundTripsBitExactly) {
  CheckpointWriter writer;
  writer.F64(std::numeric_limits<double>::quiet_NaN());
  writer.F64(std::numeric_limits<double>::infinity());
  CheckpointReader reader(writer.data());
  EXPECT_TRUE(std::isnan(reader.F64()));
  EXPECT_EQ(reader.F64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(reader.ok());
}

TEST(SerializerTest, ItemsetRoundTripAndOrderingGuard) {
  CheckpointWriter writer;
  writer.WriteItemset(Itemset{3, 7, 19});
  writer.WriteItemset(Itemset{});
  CheckpointReader reader(writer.data());
  Itemset a, b;
  EXPECT_TRUE(reader.ReadItemset(&a).ok());
  EXPECT_TRUE(reader.ReadItemset(&b).ok());
  EXPECT_EQ(a, (Itemset{3, 7, 19}));
  EXPECT_EQ(b, Itemset{});
  EXPECT_TRUE(reader.AtEnd());

  // A descending (corrupt) item list is rejected.
  CheckpointWriter bad;
  bad.U64(2);
  bad.U32(9);
  bad.U32(4);
  CheckpointReader bad_reader(bad.data());
  Itemset out;
  EXPECT_FALSE(bad_reader.ReadItemset(&out).ok());
}

TEST(SerializerTest, ItemsetWithTheReservedItemIsRejected) {
  // kInvalidItem marks the CET root, so no restored record may hold it.
  CheckpointWriter writer;
  writer.U64(3);
  writer.U32(1);
  writer.U32(2);
  writer.U32(kInvalidItem);
  CheckpointReader reader(writer.data());
  Itemset out;
  Status status = reader.ReadItemset(&out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checkpoint corrupt"), std::string::npos)
      << status.ToString();
}

TEST(SerializerTest, TruncatedPayloadFailsSticky) {
  CheckpointWriter writer;
  writer.U32(7);
  CheckpointReader reader(writer.data());
  EXPECT_EQ(reader.U64(), 0u);  // needs 8 bytes, only 4 present
  EXPECT_FALSE(reader.ok());
  // Sticky: everything after the first failure reads neutral values.
  EXPECT_EQ(reader.U32(), 0u);
  EXPECT_EQ(reader.Str(), "");
}

TEST(SerializerTest, ReadCountRejectsImplausibleLengths) {
  CheckpointWriter writer;
  writer.U64(std::numeric_limits<uint64_t>::max());
  CheckpointReader reader(writer.data());
  EXPECT_EQ(reader.ReadCount(4, "entries"), 0u);
  EXPECT_FALSE(reader.ok());
}

TEST(SerializerTest, ExpectTagNamesTheSection) {
  CheckpointWriter writer;
  writer.Tag(SectionTag('W', 'I', 'N', 'D'));
  CheckpointReader good(writer.data());
  EXPECT_TRUE(good.ExpectTag(SectionTag('W', 'I', 'N', 'D'), "window").ok());
  CheckpointReader wrong(writer.data());
  Status status = wrong.ExpectTag(SectionTag('C', 'E', 'T', 'M'), "miner");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("miner"), std::string::npos);
}

TEST(CrcTest, MatchesThePublishedVector) {
  // The standard CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Chaining over split buffers equals one pass.
  uint32_t split = Crc32("1234", 4);
  split = Crc32("56789", 5, split);
  EXPECT_EQ(split, 0xCBF43926u);
}

/// CRC-32 by its definition, one bit at a time over the reflected
/// polynomial: the reference the table-driven Crc32 must reproduce.
uint32_t BitwiseCrc32(const unsigned char* p, size_t size) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(CrcTest, MatchesABitwiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kLarge = 64 * 1024;
  std::vector<unsigned char> buffer(kLarge + 8);
  Rng rng(0xC4C32);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  // Every tail length around the eight-byte step.
  for (size_t size = 0; size <= 64; ++size) {
    EXPECT_EQ(Crc32(buffer.data(), size), BitwiseCrc32(buffer.data(), size))
        << size;
  }
  // A large buffer at every start offset modulo the step, in one pass and
  // chained over a split that is not a multiple of eight.
  for (size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buffer.data() + offset;
    const uint32_t expected = BitwiseCrc32(p, kLarge);
    EXPECT_EQ(Crc32(p, kLarge), expected) << offset;
    EXPECT_EQ(Crc32(p + 13, kLarge - 13, Crc32(p, 13)), expected) << offset;
  }
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  std::string Path() { return ::testing::TempDir() + "/bfly_persist_file.ckpt"; }
  void TearDown() override { std::remove(Path().c_str()); }

  std::string ReadAll() {
    std::ifstream in(Path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
  void WriteAll(const std::string& bytes) {
    std::ofstream out(Path(), std::ios::binary | std::ios::trunc);
    out << bytes;
  }
};

TEST_F(CheckpointFileTest, FrameRoundTrips) {
  const std::string payload = "component sections go here";
  uint64_t bytes = 0;
  ASSERT_TRUE(persist::WriteCheckpointFile(Path(), payload, &bytes).ok());
  EXPECT_EQ(bytes, payload.size() + 24);  // 8 magic + 4 version + 8 size + 4 crc
  auto read = persist::ReadCheckpointFile(Path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST_F(CheckpointFileTest, EmptyPayloadRoundTrips) {
  ASSERT_TRUE(persist::WriteCheckpointFile(Path(), "").ok());
  auto read = persist::ReadCheckpointFile(Path());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST_F(CheckpointFileTest, UnsupportedVersionIsNamedInTheError) {
  // Hand-build a frame that is valid in every way except its version field:
  // the previous format version and a future one are both refused by name.
  for (uint32_t version : {persist::kCheckpointVersion - 1, uint32_t{99}}) {
    const std::string payload = "other-version bytes";
    CheckpointWriter head;
    for (char c : persist::kCheckpointMagic) head.U8(static_cast<uint8_t>(c));
    head.U32(version);
    head.U64(payload.size());
    uint32_t crc = Crc32(head.data().data() + 8, head.data().size() - 8);
    crc = Crc32(payload.data(), payload.size(), crc);
    CheckpointWriter trailer;
    trailer.U32(crc);
    WriteAll(head.data() + payload + trailer.data());

    auto read = persist::ReadCheckpointFile(Path());
    EXPECT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(read.status().message().find("version " +
                                           std::to_string(version)),
              std::string::npos)
        << read.status().ToString();
  }
}

TEST_F(CheckpointFileTest, CorruptionIsCaught) {
  ASSERT_TRUE(persist::WriteCheckpointFile(Path(), "payload payload").ok());
  const std::string good = ReadAll();

  std::string flipped = good;
  flipped[good.size() - 6] ^= 0x01;  // inside the payload
  WriteAll(flipped);
  EXPECT_EQ(persist::ReadCheckpointFile(Path()).status().code(),
            StatusCode::kIOError);

  WriteAll(good.substr(0, good.size() - 1));  // truncated
  EXPECT_EQ(persist::ReadCheckpointFile(Path()).status().code(),
            StatusCode::kIOError);

  std::string magic = good;
  magic[3] = '?';
  WriteAll(magic);
  EXPECT_EQ(persist::ReadCheckpointFile(Path()).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Golden snapshot ---------------------------------------------------------
//
// A fixed engine state serialized with the current format version, checked
// into tests/data/ as engine_checkpoint_v<kCheckpointVersion>.ckpt. Two
// guards in one: the current writer must still produce exactly these bytes
// (byte-stable format ⇒ deterministic checkpoints), and the current reader
// must still accept them (files of this version written by older builds
// stay loadable). The file name follows kCheckpointVersion, so a version
// bump fails both tests until its golden exists. To create it after a
// DELIBERATE format change — which requires bumping kCheckpointVersion —
// run this test once with BUTTERFLY_REGEN_GOLDEN=1 in the environment and
// delete the previous version's file.

std::string GoldenPath() {
  return std::string(BUTTERFLY_TEST_DATA_DIR) + "/engine_checkpoint_v" +
         std::to_string(persist::kCheckpointVersion) + ".ckpt";
}

/// A small but non-trivial pinned engine state: full window, a sealed
/// republish cache, nonzero epoch.
StreamPrivacyEngine GoldenEngine() {
  ButterflyConfig config;
  config.min_support = 3;
  config.vulnerable_support = 1;
  config.epsilon = 0.1;
  config.delta = 0.4;
  config.scheme = ButterflyScheme::kHybrid;
  config.lambda = 0.4;
  config.seed = 4242;
  StreamPrivacyEngine engine(12, config);
  Rng rng(42);
  for (size_t i = 0; i < 60; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < 6; ++a) {
      if (rng.Bernoulli(0.4)) items.push_back(a);
    }
    if (items.empty()) items.push_back(0);
    engine.Append(Transaction(i + 1, Itemset(std::move(items))));
    if ((i + 1) % 20 == 0) (void)engine.Release();
  }
  return engine;
}

TEST(GoldenSnapshotTest, FormatIsByteStable) {
  StreamPrivacyEngine engine = GoldenEngine();
  CheckpointWriter writer;
  engine.Checkpoint(&writer);

  if (std::getenv("BUTTERFLY_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(persist::WriteCheckpointFile(GoldenPath(), writer.data()).ok());
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }

  auto golden = persist::ReadCheckpointFile(GoldenPath());
  ASSERT_TRUE(golden.ok())
      << golden.status().ToString()
      << " — run with BUTTERFLY_REGEN_GOLDEN=1 to (re)create the golden file";
  EXPECT_EQ(writer.data(), *golden)
      << "the serialized engine state changed byte-wise; if this is a "
         "deliberate format change, bump kCheckpointVersion and regenerate "
         "with BUTTERFLY_REGEN_GOLDEN=1";
}

TEST(GoldenSnapshotTest, FormatStaysLoadableAndResumesIdentically) {
  auto restored = persist::LoadEngineCheckpoint(GoldenPath());
  ASSERT_TRUE(restored.ok())
      << restored.status().ToString()
      << " — run with BUTTERFLY_REGEN_GOLDEN=1 to (re)create the golden file";

  // The restored engine and a live engine at the same point emit identical
  // bytes from here on.
  StreamPrivacyEngine live = GoldenEngine();
  Rng rng(43);
  for (size_t i = 60; i < 90; ++i) {
    std::vector<Item> items;
    for (Item a = 0; a < 6; ++a) {
      if (rng.Bernoulli(0.4)) items.push_back(a);
    }
    if (items.empty()) items.push_back(1);
    Transaction t(i + 1, Itemset(std::move(items)));
    restored->Append(t);
    live.Append(t);
  }
  EXPECT_EQ(restored->Release().output.items(), live.Release().output.items());
}

}  // namespace
}  // namespace butterfly
