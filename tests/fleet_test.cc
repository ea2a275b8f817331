/// Differential testing of the multi-tenant EngineFleet scheduler against
/// its determinism contract: each tenant's release log must be
/// byte-identical to running that tenant alone, serially, at every tested
/// thread count — and must survive a kill-and-restore in the
/// middle of a round-robin checkpoint pass, where only a prefix of the
/// tenants has a snapshot on disk.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/release_log.h"
#include "core/stream_engine.h"
#include "persist/checkpoint.h"
#include "random_stream.h"
#include "service/engine_fleet.h"

namespace butterfly {
namespace {

constexpr size_t kWindow = 40;
constexpr size_t kStride = 10;
constexpr size_t kRecords = 100;  // 7 releases: positions 40, 50, ..., 100

FleetConfig MakeFleetConfig(size_t tenants, int64_t threads) {
  FleetConfig config;
  config.tenants = tenants;
  config.threads = threads;
  config.window = kWindow;
  config.stride = kStride;
  config.engine.min_support = 4;
  config.engine.vulnerable_support = 2;
  config.engine.epsilon = 0.1;
  config.engine.delta = 0.4;
  config.engine.scheme = ButterflyScheme::kHybrid;
  config.engine.lambda = 0.4;
  config.engine.seed = 0xB0A710ADull;
  return config;
}

/// Per-tenant input streams: alternating dense-narrow and sparse-wide
/// shapes (the mining_fuzz axes), each tenant with its own data seed.
std::vector<Transaction> TenantStream(uint64_t tenant) {
  testutil::StreamCase shape{
      /*seed=*/301 + tenant,
      /*window=*/kWindow,
      /*records=*/kRecords,
      /*alphabet=*/static_cast<Item>(tenant % 2 == 0 ? 8 : 90),
      /*density=*/tenant % 2 == 0 ? 0.30 : 0.05,
      /*min_support=*/4};
  return testutil::RandomStream(shape);
}

/// The solo side of the contract: tenant `tenant`'s derived engine run
/// alone and serially, one byte string per release.
std::vector<std::string> SoloReleases(const FleetConfig& config,
                                      uint64_t tenant,
                                      const std::vector<Transaction>& stream) {
  auto engine = StreamPrivacyEngine::Create(config.window,
                                            TenantEngineConfig(config, tenant));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<std::string> releases;
  uint64_t next_release = config.window;
  for (size_t i = 0; i < stream.size(); ++i) {
    engine->Append(stream[i]);
    if (i + 1 == next_release) {
      std::ostringstream out;
      EXPECT_TRUE(WriteRelease(&out, EngineFleet::ReleaseLabel(tenant, i + 1),
                               engine->Release().output)
                      .ok());
      releases.push_back(out.str());
      next_release += config.stride;
    }
  }
  return releases;
}

std::string Concat(const std::vector<std::string>& parts, size_t from = 0) {
  std::string all;
  for (size_t i = from; i < parts.size(); ++i) all += parts[i];
  return all;
}

uint64_t TotalReleaseCount(const EngineFleet& fleet) {
  uint64_t total = 0;
  for (uint64_t t = 0; t < fleet.tenant_count(); ++t) {
    total += fleet.ReleaseCount(t);
  }
  return total;
}

/// Pumps once and checks Pump()'s return value against the releases the
/// call actually emitted, and the fleet's index gauge against the engines'
/// own, read now (not as of each tenant's last release).
void PumpAndCheckCount(EngineFleet* fleet) {
  const uint64_t before = TotalReleaseCount(*fleet);
  const size_t released = fleet->Pump();
  EXPECT_EQ(released, TotalReleaseCount(*fleet) - before);
  size_t index_bytes = 0;
  for (uint64_t t = 0; t < fleet->tenant_count(); ++t) {
    index_bytes +=
        fleet->engine(t).miner().bitmap_index().MemoryStats().index_bytes;
  }
  EXPECT_GT(index_bytes, 0u);
  EXPECT_EQ(fleet->Stats().index_bytes, index_bytes);
}

/// Runs `tenants` tenants through a fleet at `threads` and compares every
/// release log with the tenant's solo serial run.
void ExpectByteIdenticalToSolo(size_t tenants, int64_t threads) {
  std::vector<std::vector<Transaction>> streams;
  for (uint64_t t = 0; t < tenants; ++t) streams.push_back(TenantStream(t));

  // The derived engine config is thread-independent, so the solo reference
  // is the same at every thread count.
  const FleetConfig config = MakeFleetConfig(tenants, threads);
  std::vector<std::string> expected;
  for (uint64_t t = 0; t < tenants; ++t) {
    std::vector<std::string> releases = SoloReleases(config, t, streams[t]);
    ASSERT_EQ(releases.size(), 7u);
    expected.push_back(Concat(releases));
  }

  auto fleet = EngineFleet::Create(config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  // Interleaved chunked ingest with pumps at chunk boundaries that do NOT
  // line up with release points: the scheduler must release each tenant at
  // its exact release position regardless.
  constexpr size_t kChunk = 7;
  for (size_t begin = 0; begin < kRecords; begin += kChunk) {
    const size_t end = std::min(begin + kChunk, kRecords);
    for (uint64_t t = 0; t < tenants; ++t) {
      for (size_t i = begin; i < end; ++i) {
        ASSERT_TRUE(fleet->Ingest(t, streams[t][i]).ok());
      }
    }
    PumpAndCheckCount(&*fleet);
  }
  EXPECT_EQ(fleet->Pump(), 0u);  // everything was already drained

  for (uint64_t t = 0; t < tenants; ++t) {
    EXPECT_EQ(fleet->ReleaseLog(t), expected[t])
        << "tenant " << t << " threads=" << threads;
    EXPECT_EQ(fleet->ReleaseCount(t), 7u);
    EXPECT_EQ(fleet->StreamPosition(t), kRecords);
  }
  FleetStats stats = fleet->Stats();
  EXPECT_EQ(stats.releases, tenants * 7u);
  EXPECT_EQ(stats.ingested, tenants * kRecords);
  EXPECT_EQ(stats.queued, 0u);
  // Every release expanded its window inside the pump.
  EXPECT_GT(stats.spans[Stage::kExpand], 0);
}

TEST(FleetTest, ByteIdenticalToSoloAcrossThreadCounts) {
  for (int64_t threads : {int64_t{1}, int64_t{4}, int64_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectByteIdenticalToSolo(/*tenants=*/6, threads);
  }
}

TEST(FleetTest, ByteIdenticalWithFewerTenantsThanParticipants) {
  // 3 tenants on 8 participants: most participants find no tenant to claim.
  ExpectByteIdenticalToSolo(/*tenants=*/3, /*threads=*/8);
}

// Regression test for the Stats()/Pump() race the thread-safety
// annotations surfaced: Stats() used to read every engine's window
// position and the pump-side drain counters with no lock, so a monitoring
// thread polling mid-Pump raced the pump tasks (and CheckpointNextTenant
// could serialize an engine a drain was mutating). Both now serialize
// against Pump() via the fleet's pump lock; Ingest stays lock-free against
// it. Run under TSAN (fleet_tsan_test compiles this file) this drives the
// exact interleaving that used to race; under any build it checks that the
// quiescent final numbers add up.
TEST(FleetTest, ConcurrentStatsAndIngestDuringPump) {
  constexpr size_t kTenants = 6;
  constexpr size_t kRounds = 10;  // kRecords/kRounds records per round
  std::vector<std::vector<Transaction>> streams;
  for (uint64_t t = 0; t < kTenants; ++t) streams.push_back(TenantStream(t));

  auto fleet = EngineFleet::Create(MakeFleetConfig(kTenants, 8));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  const std::string dir = ::testing::TempDir();

  std::atomic<bool> done{false};
  // Monitoring thread: hammers Stats() and the round-robin checkpointer
  // while the driver thread pumps. Every observation must be internally
  // consistent (releases never exceed what full drains could have emitted).
  std::thread monitor([&] {
    uint64_t last_releases = 0;
    while (!done.load(std::memory_order_acquire)) {
      FleetStats stats = fleet->Stats();
      EXPECT_GE(stats.releases, last_releases);  // monotone
      EXPECT_EQ(stats.tenants, kTenants);
      last_releases = stats.releases;
      auto saved = fleet->CheckpointNextTenant(dir);
      EXPECT_TRUE(saved.ok()) << saved.status().ToString();
    }
  });
  // Producer thread for the odd tenants: Ingest is thread-safe against
  // Pump() and against producers of other tenants.
  std::thread producer([&] {
    for (size_t round = 0; round < kRounds; ++round) {
      const size_t begin = round * (kRecords / kRounds);
      const size_t end = (round + 1) * (kRecords / kRounds);
      for (uint64_t t = 1; t < kTenants; t += 2) {
        for (size_t i = begin; i < end; ++i) {
          ASSERT_TRUE(fleet->Ingest(t, streams[t][i]).ok());
        }
      }
    }
  });
  // Driver thread: ingests the even tenants and pumps continuously.
  for (size_t round = 0; round < kRounds; ++round) {
    const size_t begin = round * (kRecords / kRounds);
    const size_t end = (round + 1) * (kRecords / kRounds);
    for (uint64_t t = 0; t < kTenants; t += 2) {
      for (size_t i = begin; i < end; ++i) {
        ASSERT_TRUE(fleet->Ingest(t, streams[t][i]).ok());
      }
    }
    fleet->Pump();
  }
  producer.join();
  fleet->Pump();
  done.store(true, std::memory_order_release);
  monitor.join();

  FleetStats stats = fleet->Stats();
  EXPECT_EQ(stats.ingested, kTenants * kRecords);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.releases, kTenants * 7u);
  EXPECT_GE(stats.checkpoints_written, 1u);
  for (uint64_t t = 0; t < kTenants; ++t) {
    std::remove(EngineFleet::TenantCheckpointPath(dir, t).c_str());
  }
}

TEST(FleetTest, TenantSeedsDiffer) {
  const FleetConfig config = MakeFleetConfig(3, 8);
  const ButterflyConfig a = TenantEngineConfig(config, 0);
  const ButterflyConfig b = TenantEngineConfig(config, 1);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.seed, config.engine.seed);
}

TEST(FleetTest, IngestRejectsUnknownTenant) {
  auto fleet = EngineFleet::Create(MakeFleetConfig(2, 1));
  ASSERT_TRUE(fleet.ok());
  Status s = fleet->Ingest(2, Transaction(1, Itemset{1}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FleetTest, IngestRejectsTheReservedItem) {
  // kInvalidItem marks the CET root. Appended, four records
  // {1, 2, kInvalidItem} at H = 4, C = 2 make it a frequent item whose node
  // passes for the root.
  FleetConfig config = MakeFleetConfig(1, 1);
  config.window = 4;
  config.stride = 4;
  config.engine.min_support = 2;
  config.engine.vulnerable_support = 1;
  auto fleet = EngineFleet::Create(config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  for (int i = 0; i < 4; ++i) {
    Status s = fleet->Ingest(0, Transaction(0, Itemset{1, 2, kInvalidItem}));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
  // Nothing was queued, and well-formed records still flow.
  fleet->Pump();
  EXPECT_EQ(fleet->engine(0).miner().window().stream_position(), 0u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet->Ingest(0, Transaction(0, Itemset{1, 2})).ok());
  }
  fleet->Pump();
  EXPECT_EQ(fleet->engine(0).miner().window().stream_position(), 4u);
}

TEST(FleetTest, KillAndRestoreMidRoundRobinCheckpoint) {
  constexpr size_t kTenants = 4;
  const std::string dir = ::testing::TempDir();  // must already exist
  std::remove(EngineFleet::TenantCheckpointPath(dir, 0).c_str());
  std::remove(EngineFleet::TenantCheckpointPath(dir, 1).c_str());

  std::vector<std::vector<Transaction>> streams;
  for (uint64_t t = 0; t < kTenants; ++t) streams.push_back(TenantStream(t));
  const FleetConfig config = MakeFleetConfig(kTenants, 8);
  std::vector<std::vector<std::string>> solo;
  for (uint64_t t = 0; t < kTenants; ++t) {
    solo.push_back(SoloReleases(config, t, streams[t]));
    ASSERT_EQ(solo[t].size(), 7u);
  }

  // Run the fleet to record 55 (two releases in), then snapshot only the
  // first two tenants — a kill in the middle of the round-robin pass.
  constexpr size_t kCut = 55;
  constexpr size_t kReleasesAtCut = 2;  // positions 40 and 50
  {
    auto fleet = EngineFleet::Create(config);
    ASSERT_TRUE(fleet.ok());
    for (uint64_t t = 0; t < kTenants; ++t) {
      for (size_t i = 0; i < kCut; ++i) {
        ASSERT_TRUE(fleet->Ingest(t, streams[t][i]).ok());
      }
    }
    PumpAndCheckCount(&*fleet);
    auto first = fleet->CheckpointNextTenant(dir);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(*first, 0u);
    auto second = fleet->CheckpointNextTenant(dir);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, 1u);
    EXPECT_EQ(fleet->Stats().checkpoints_written, 2u);
  }  // the fleet dies here

  // A restarted fleet picks up whatever snapshots exist: tenants 0 and 1
  // resume from record 55, tenants 2 and 3 start over from scratch.
  auto fleet = EngineFleet::Create(config);
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(fleet->RestoreTenants(dir).ok());
  for (uint64_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(fleet->StreamPosition(t), t < 2 ? kCut : 0u);
    // The driver re-ingests each tenant's stream from its restored position.
    for (size_t i = fleet->StreamPosition(t); i < kRecords; ++i) {
      ASSERT_TRUE(fleet->Ingest(t, streams[t][i]).ok());
    }
  }
  PumpAndCheckCount(&*fleet);

  for (uint64_t t = 0; t < kTenants; ++t) {
    const bool restored = t < 2;
    // Restored tenants emit exactly the post-snapshot suffix of the solo
    // schedule, byte-identical; fresh tenants replay the whole schedule.
    EXPECT_EQ(fleet->ReleaseLog(t),
              Concat(solo[t], restored ? kReleasesAtCut : 0))
        << "tenant " << t;
    EXPECT_EQ(fleet->ReleaseCount(t), 7u);
  }

  std::remove(EngineFleet::TenantCheckpointPath(dir, 0).c_str());
  std::remove(EngineFleet::TenantCheckpointPath(dir, 1).c_str());
}

TEST(FleetTest, RestoreRefusesWithQueuedRecords) {
  auto fleet = EngineFleet::Create(MakeFleetConfig(1, 1));
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(fleet->Ingest(0, Transaction(1, Itemset{1})).ok());
  Status s = fleet->RestoreTenants(::testing::TempDir());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FleetTest, RestoreWithTrailingBytesKeepsTheTenantCoherent) {
  // A snapshot whose engine state parses but is followed by stray bytes is
  // reported, and the tenant it restored stays coherent: its release count
  // follows its restored engine.
  const std::string dir = ::testing::TempDir();
  const std::string path = EngineFleet::TenantCheckpointPath(dir, 0);
  const FleetConfig config = MakeFleetConfig(1, 1);
  {
    auto fleet = EngineFleet::Create(config);
    ASSERT_TRUE(fleet.ok());
    for (const Transaction& t : TenantStream(0)) {
      ASSERT_TRUE(fleet->Ingest(0, t).ok());
    }
    fleet->Pump();
    ASSERT_TRUE(fleet->CheckpointNextTenant(dir).ok());
  }
  auto payload = persist::ReadCheckpointFile(path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  ASSERT_TRUE(persist::WriteCheckpointFile(path, *payload + "x").ok());

  auto fleet = EngineFleet::Create(config);
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(fleet->RestoreTenants(dir).code(), StatusCode::kIOError);
  EXPECT_EQ(fleet->ReleaseCount(0), 7u);
  EXPECT_EQ(fleet->ReleaseCount(0), fleet->engine(0).release_epoch());
  std::remove(path.c_str());
}

/// A fresh directory of this process's own under the test temp dir, removed
/// with everything in it when the test ends.
class TenantSnapshotDir {
 public:
  explicit TenantSnapshotDir(const std::string& name)
      : path_(::testing::TempDir() + "/" + std::to_string(getpid()) + "_" +
              name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TenantSnapshotDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr size_t kRestoreTenants = 8;
constexpr size_t kCut = 55;             // snapshot position
constexpr size_t kReleasesAtCut = 2;    // positions 40 and 50

std::vector<std::vector<Transaction>> TenantStreams(size_t tenants) {
  std::vector<std::vector<Transaction>> streams;
  for (uint64_t t = 0; t < tenants; ++t) streams.push_back(TenantStream(t));
  return streams;
}

/// Feeds every tenant its stream from its current position up to \p end
/// and pumps once.
void FeedTo(EngineFleet* fleet,
            const std::vector<std::vector<Transaction>>& streams, size_t end) {
  for (uint64_t t = 0; t < fleet->tenant_count(); ++t) {
    for (size_t i = fleet->StreamPosition(t); i < end; ++i) {
      ASSERT_TRUE(fleet->Ingest(t, streams[t][i]).ok());
    }
  }
  fleet->Pump();
}

/// Snapshots every tenant of a fleet fed to record kCut into \p dir.
void SnapshotAtCut(const std::vector<std::vector<Transaction>>& streams,
                   const std::string& dir) {
  auto fleet = EngineFleet::Create(MakeFleetConfig(streams.size(), 4));
  ASSERT_TRUE(fleet.ok());
  FeedTo(&*fleet, streams, kCut);
  for (size_t t = 0; t < streams.size(); ++t) {
    ASSERT_TRUE(fleet->CheckpointNextTenant(dir).ok());
  }
}

TEST(FleetRestoreTest, ParallelRestoreResumesByteIdenticallyAtEveryThreadCount) {
  const TenantSnapshotDir dir("parallel_restore");
  const auto streams = TenantStreams(kRestoreTenants);
  SnapshotAtCut(streams, dir.path());

  std::vector<std::string> first_logs;
  for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FleetConfig config = MakeFleetConfig(kRestoreTenants, threads);
    auto fleet = EngineFleet::Create(config);
    ASSERT_TRUE(fleet.ok());
    ASSERT_TRUE(fleet->RestoreTenants(dir.path()).ok());
    EXPECT_GT(fleet->Stats().restore_wall_ns, 0);
    for (uint64_t t = 0; t < kRestoreTenants; ++t) {
      EXPECT_EQ(fleet->StreamPosition(t), kCut);
      EXPECT_EQ(fleet->ReleaseCount(t), kReleasesAtCut);
    }
    FeedTo(&*fleet, streams, kRecords);

    std::vector<std::string> logs;
    for (uint64_t t = 0; t < kRestoreTenants; ++t) {
      EXPECT_EQ(fleet->ReleaseLog(t),
                Concat(SoloReleases(config, t, streams[t]), kReleasesAtCut))
          << "tenant " << t;
      logs.push_back(fleet->ReleaseLog(t));
    }
    if (first_logs.empty()) first_logs = logs;
    EXPECT_EQ(logs, first_logs);
  }
}

TEST(FleetRestoreTest, CorruptSnapshotsFailTheLowestTenantAndSpareTheRest) {
  const TenantSnapshotDir dir("corrupt_restore");
  const auto streams = TenantStreams(kRestoreTenants);
  SnapshotAtCut(streams, dir.path());
  // Tenant 2: a payload cut short under a valid CRC, so the engine's own
  // restore fails partway through. Tenant 5: another tenant's snapshot,
  // which its config check rejects. The two fail with different codes.
  const std::string path2 = EngineFleet::TenantCheckpointPath(dir.path(), 2);
  auto payload = persist::ReadCheckpointFile(path2);
  ASSERT_TRUE(payload.ok());
  payload->resize(payload->size() - 16);
  ASSERT_TRUE(persist::WriteCheckpointFile(path2, *payload).ok());
  std::filesystem::copy_file(
      EngineFleet::TenantCheckpointPath(dir.path(), 6),
      EngineFleet::TenantCheckpointPath(dir.path(), 5),
      std::filesystem::copy_options::overwrite_existing);

  constexpr size_t kBefore = 70;  // releases at 40, 50, 60 and 70
  for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FleetConfig config = MakeFleetConfig(kRestoreTenants, threads);
    auto fleet = EngineFleet::Create(config);
    ASSERT_TRUE(fleet.ok());
    FeedTo(&*fleet, streams, kBefore);
    std::vector<std::string> logs_before;
    for (uint64_t t = 0; t < kRestoreTenants; ++t) {
      logs_before.push_back(fleet->ReleaseLog(t));
    }

    const Status restored = fleet->RestoreTenants(dir.path());
    EXPECT_EQ(restored.code(), StatusCode::kIOError) << restored.ToString();
    EXPECT_NE(restored.message().find("truncated"), std::string::npos)
        << restored.ToString();

    for (uint64_t t = 0; t < kRestoreTenants; ++t) {
      const bool failed = t == 2 || t == 5;
      EXPECT_EQ(fleet->StreamPosition(t), failed ? kBefore : kCut)
          << "tenant " << t;
      EXPECT_EQ(fleet->ReleaseCount(t), failed ? 4u : kReleasesAtCut)
          << "tenant " << t;
      EXPECT_EQ(fleet->ReleaseLog(t), failed ? logs_before[t] : "")
          << "tenant " << t;
    }
    // Every tenant resumes from where it stands: the failed two run on
    // from record 70, the restored six from their snapshot.
    FeedTo(&*fleet, streams, kRecords);
    for (uint64_t t = 0; t < kRestoreTenants; ++t) {
      const bool failed = t == 2 || t == 5;
      EXPECT_EQ(fleet->ReleaseLog(t),
                Concat(SoloReleases(config, t, streams[t]),
                       failed ? 0 : kReleasesAtCut))
          << "tenant " << t;
    }
  }
}

TEST(FleetRestoreTest, QueuedRecordForTheLastTenantRestoresNoTenant) {
  const TenantSnapshotDir dir("queued_restore");
  const auto streams = TenantStreams(kRestoreTenants);
  SnapshotAtCut(streams, dir.path());

  auto fleet = EngineFleet::Create(MakeFleetConfig(kRestoreTenants, 4));
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(fleet->Ingest(kRestoreTenants - 1, streams.back()[0]).ok());
  EXPECT_EQ(fleet->RestoreTenants(dir.path()).code(),
            StatusCode::kInvalidArgument);
  for (uint64_t t = 0; t < kRestoreTenants; ++t) {
    EXPECT_EQ(fleet->StreamPosition(t), 0u) << "tenant " << t;
    EXPECT_EQ(fleet->ReleaseCount(t), 0u) << "tenant " << t;
  }
  EXPECT_EQ(fleet->Stats().queued, 1u);
}

TEST(LatencyHistogramTest, PercentilesWithinTheStatedErrorOfExact) {
  // 2,000 latencies spread log-uniformly over 20 us - 20 ms by a fixed
  // LCG: the exact percentiles are order statistics of the sorted list,
  // at the ranks FleetStats reads.
  std::vector<double> latencies;
  LatencyHistogram histogram;
  uint64_t state = 12345;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    latencies.push_back(20e3 * std::pow(1000.0, u));
    histogram.Record(latencies.back());
  }
  std::sort(latencies.begin(), latencies.end());
  const size_t last = latencies.size() - 1;
  EXPECT_EQ(histogram.count(), latencies.size());
  for (double q : {0.5, 0.99}) {
    const double exact =
        latencies[static_cast<size_t>(static_cast<double>(last) * q)];
    EXPECT_LE(std::abs(histogram.Quantile(q) - exact),
              LatencyHistogram::kRelativeError * exact)
        << "q=" << q << " exact " << exact;
  }

  // Summing two halves gives the whole; an empty record reads 0.
  LatencyHistogram low, high;
  for (size_t i = 0; i < latencies.size(); ++i) {
    (i % 2 == 0 ? low : high).Record(latencies[i]);
  }
  low += high;
  EXPECT_EQ(low.Quantile(0.5), histogram.Quantile(0.5));
  EXPECT_EQ(low.Quantile(0.99), histogram.Quantile(0.99));
  EXPECT_EQ(LatencyHistogram{}.Quantile(0.5), 0);
}

TEST(FleetConfigTest, ValidateCatchesBadShapes) {
  FleetConfig config = MakeFleetConfig(1, 1);
  config.tenants = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = MakeFleetConfig(1, 1);
  config.stride = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = MakeFleetConfig(1, 1);
  config.engine.epsilon = -1;  // propagates to the derived engine validation
  EXPECT_FALSE(config.Validate().ok());
  // The pump's own width: only the fleet validator sees it, and a huge
  // value would size the pool.
  for (int64_t threads : {int64_t{-1}, kMaxThreads + 1}) {
    config = MakeFleetConfig(1, 1);
    config.threads = threads;
    EXPECT_FALSE(config.Validate().ok()) << threads;
  }
  config = MakeFleetConfig(1, 1);
  config.threads = kMaxThreads;
  EXPECT_TRUE(config.Validate().ok());
  // The fleet builds every tenant's engine up front, so the count is bounded
  // before anything is allocated.
  config = MakeFleetConfig(1, 1);
  config.tenants = kMaxTenants;
  EXPECT_TRUE(config.Validate().ok());
  config.tenants = kMaxTenants + 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  // A window past kMaxWindow fails validation, on either store, instead of
  // aborting (hybrid) or allocating its slot table (dense) while the fleet
  // builds its engines.
  for (bool hybrid : {true, false}) {
    config = MakeFleetConfig(1, 1);
    config.engine.hybrid_index = hybrid;
    config.window = kMaxWindow;
    EXPECT_TRUE(config.Validate().ok()) << hybrid;
    config.window = kMaxWindow + 1;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument)
        << hybrid;
    EXPECT_FALSE(EngineFleet::Create(config).ok()) << hybrid;
  }
}

}  // namespace
}  // namespace butterfly
