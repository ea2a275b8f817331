/// \file engine_fleet.h
/// \brief EngineFleet: many tenant StreamPrivacyEngines behind one scheduler.
///
/// A single engine releases on one thread. A service mining thousands of
/// concurrent streams has many small windows rather than one big one, so
/// the fleet is where threads come in: it scales them with *tenant count*:
///
///  * Each tenant owns a mutex+swap double-buffered ingest queue: producers
///    append under a short lock, the pump swaps the buffer out and replays
///    it into the engine lock-free.
///  * Pump() is one ParallelFor over the tenants: the caller and the pool's
///    workers claim one tenant at a time off a shared cursor, and whoever
///    claims a tenant drains its queue end to end, releasing inline at each
///    release point (the window content at release time is what the
///    determinism contract is about). A tenant's appends and its release
///    run back to back on one thread, and no barrier separates one tenant's
///    work from another's.
///  * Round-robin checkpointing walks the tenants one SaveEngineCheckpoint
///    per call, bounding the per-call latency a snapshot adds to the pump
///    loop; RestoreTenants reloads whichever snapshots exist, one tenant per
///    claim on the same pool.
///
/// Determinism contract: each tenant's release log is byte-identical to
/// running that tenant alone, serially, at any thread count. Three
/// mechanisms carry it: per-tenant RNG seeds derived in one place
/// (DeriveTenantSeed, so equal configs never share noise streams), strictly
/// preserved per-tenant ingest order (the queue is FIFO and one pump
/// participant owns a tenant for a whole Pump()), and releases fired at
/// exact per-tenant stream positions (window + k * stride). Cross-tenant
/// ordering is deliberately unconstrained — tenants share no state, so no
/// observable output depends on which tenant was pumped first.

#ifndef BUTTERFLY_SERVICE_ENGINE_FLEET_H_
#define BUTTERFLY_SERVICE_ENGINE_FLEET_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/stream_engine.h"

namespace butterfly {

/// Fleet-level configuration. `engine` is the per-tenant template: every
/// tenant runs the same Butterfly parameters, but its RNG seed is derived
/// from (engine.seed, tenant id).
struct FleetConfig {
  size_t tenants = 1;
  /// Ignored: Pump() schedules per tenant, not per shard. Kept only so
  /// existing callers that still assign it compile; it will be removed.
  size_t shards = 1;
  /// Pump parallelism (the calling thread plus the shared pool's workers):
  /// 1 = serial, 0 = auto (hardware concurrency), at most kMaxThreads.
  int64_t threads = 1;
  size_t window = 2000;  ///< per-tenant sliding-window size H
  size_t stride = 100;   ///< slides between consecutive releases per tenant
  ButterflyConfig engine;

  /// Per-tenant release-policy assignment. Empty (the default) runs every
  /// tenant under engine.policy; otherwise tenant t runs
  /// tenant_policies[t % tenant_policies.size()] — a round-robin, so a
  /// mixed fleet is expressed as the list of policies to cycle through.
  /// The DP knobs (engine.policy_epsilon, engine.policy_top_k) are shared.
  std::vector<ReleasePolicyKind> tenant_policies;

  Status Validate() const;
};

/// The exact engine configuration tenant \p tenant runs under in a fleet
/// with \p config: the template with the tenant-derived seed
/// (DeriveTenantSeed) and its round-robin policy. Exposed so solo reference
/// runs — the other side of the byte-identity contract — can reproduce a
/// tenant's engine exactly.
ButterflyConfig TenantEngineConfig(const FleetConfig& config, uint64_t tenant);

/// A fixed-size record of latencies: kBucketsPerOctave log-spaced buckets
/// per doubling, from kMinNs (1.02 us) up to kMinNs * 2^kOctaves (17.2 s),
/// one 64-bit count each (768 bytes). A quantile reads the geometric
/// midpoint of the bucket that holds its rank, so for latencies inside that
/// range it lies within kRelativeError (2^(1/8) - 1, under 9.1%) of the
/// exact order statistic. A latency outside the range counts in the nearest
/// end bucket.
class LatencyHistogram {
 public:
  static constexpr size_t kBucketsPerOctave = 4;
  static constexpr size_t kOctaves = 24;
  static constexpr size_t kBuckets = kBucketsPerOctave * kOctaves;
  static constexpr double kMinNs = 1024;
  static constexpr double kRelativeError = 0.0906;  ///< > 2^(1/8) - 1

  void Record(double ns);
  LatencyHistogram& operator+=(const LatencyHistogram& other);

  uint64_t count() const;

  /// The latency at rank floor(q * (count() - 1)) of the recorded ones, in
  /// ascending order, to within kRelativeError, for q in [0, 1]; 0 if none
  /// is recorded.
  double Quantile(double q) const;

 private:
  std::array<uint64_t, kBuckets> counts_{};
};

/// Aggregated fleet statistics: totals across every tenant since creation
/// (or restore), plus the release-latency distribution of the individual
/// engine.Release() calls as executed inside Pump().
struct FleetStats {
  size_t tenants = 0;
  size_t threads = 0;

  uint64_t ingested = 0;  ///< records appended into engines
  uint64_t queued = 0;    ///< records accepted but not yet pumped
  uint64_t releases = 0;  ///< releases emitted across all tenants

  /// Per-release latency percentiles, read from the tenants' summed
  /// LatencyHistograms: each is within LatencyHistogram::kRelativeError
  /// (9.1%) of the exact percentile.
  double release_p50_ns = 0;  ///< median per-release latency
  double release_p99_ns = 0;  ///< tail per-release latency

  /// Pump phases since creation (a restore does not reset them).
  /// `pump_wall_ns` sums the wall time of every Pump() call, and
  /// `pump_busy_ns` the time participants spent draining tenants (two clock
  /// reads per claimed tenant). threads * pump_wall_ns - pump_busy_ns is the
  /// participants' idle time: claims, and the wait at the end of each
  /// ParallelFor for the slowest participant.
  double pump_wall_ns = 0;
  double pump_busy_ns = 0;

  /// Wall time of the last RestoreTenants() call; 0 before any.
  double restore_wall_ns = 0;

  /// Stage spans summed over every release (see ReleaseStats).
  StageSpans spans;

  /// Sum of the tenants' window-index payload bytes now, as of the Stats()
  /// call (each engine's `bitmap_index().MemoryStats()`), not as of each
  /// tenant's last release.
  size_t index_bytes = 0;

  uint64_t checkpoints_written = 0;
};

class EngineFleet {
 public:
  /// Validates \p config and builds the fleet: `tenants` engines with
  /// derived seeds, empty queues, and the shared scheduler pool.
  static Result<EngineFleet> Create(const FleetConfig& config);

  /// Movable (to pass through Result<EngineFleet>); the pump lock itself is
  /// not moved — the new fleet gets a fresh one, which is sound because a
  /// fleet is only moved before any concurrent use.
  EngineFleet(EngineFleet&& other);

  size_t tenant_count() const { return tenants_.size(); }
  const FleetConfig& config() const { return config_; }

  /// Enqueues one record for \p tenant. Fails with kInvalidArgument, and
  /// enqueues nothing, for an unknown tenant or a record that holds
  /// kInvalidItem. Thread-safe against Pump() and against concurrent Ingest
  /// calls for other tenants; concurrent producers for the *same* tenant must
  /// serialize themselves (per-tenant order is the determinism contract's
  /// input).
  Status Ingest(uint64_t tenant, Transaction t);

  /// Drains every tenant's queue into its engine and emits every release
  /// that comes due, tenants in parallel across the calling thread and the
  /// pool. Returns the number of releases emitted. Call from one driver
  /// thread; not re-entrant (enforced: holds the pump lock for the whole
  /// drain, so Stats()/CheckpointNextTenant()/RestoreTenants() from other
  /// threads serialize against it instead of racing the engines).
  size_t Pump() BFLY_EXCLUDES(pump_mu_);

  /// The concatenated WriteRelease bytes of every release \p tenant has
  /// emitted since creation/restore — the byte-identity comparison unit.
  const std::string& ReleaseLog(uint64_t tenant) const;

  /// Releases emitted by \p tenant (equals its engine's release epoch).
  uint64_t ReleaseCount(uint64_t tenant) const;

  /// Records consumed (appended into the engine) for \p tenant. After a
  /// restore this is the snapshot's position: the driver re-ingests the
  /// stream from here.
  uint64_t StreamPosition(uint64_t tenant) const;

  const StreamPrivacyEngine& engine(uint64_t tenant) const;

  /// Aggregates FleetStats over all tenants. Safe to call from a monitoring
  /// thread while the driver thread is inside Pump(): it takes the pump
  /// lock, so it observes the fleet quiescent (before or after the drain,
  /// never mid-drain).
  FleetStats Stats() const BFLY_EXCLUDES(pump_mu_);

  /// Saves the next tenant in round-robin order to
  /// TenantCheckpointPath(dir, id) and advances the cursor. One tenant per
  /// call bounds the latency a snapshot adds between pumps; calling it
  /// `tenants` times snapshots the whole fleet. Returns the tenant saved.
  /// Serializes against Pump() via the pump lock.
  Result<uint64_t> CheckpointNextTenant(const std::string& dir)
      BFLY_EXCLUDES(pump_mu_);

  /// Restores every tenant whose snapshot file exists under \p dir (bit-
  /// compared against the tenant's derived config — a snapshot from a
  /// different tenant or fleet is rejected, not silently adopted). Tenants
  /// without a snapshot keep their current state. Queues must be empty —
  /// restore replaces engine state, and queued records belong to the state
  /// being replaced — so a buffered record for any tenant fails the call
  /// with kInvalidArgument before any tenant is touched. Serializes against
  /// Pump() via the pump lock.
  ///
  /// Tenants restore in parallel, one per claim on the pump's pool. Each
  /// tenant's restore is all or nothing (StreamPrivacyEngine::Restore): a
  /// snapshot that fails to read or parse leaves that tenant exactly as it
  /// was, never a mix of the snapshot's window with its own epoch and pins.
  /// A snapshot with stray bytes after the engine state restores its tenant
  /// whole, bookkeeping included, and then reports them. Every valid
  /// snapshot restores, whichever others fail, and the call returns the
  /// error of the lowest-numbered failing tenant, so the outcome does not
  /// depend on thread count or claim order.
  Status RestoreTenants(const std::string& dir) BFLY_EXCLUDES(pump_mu_);

  static std::string TenantCheckpointPath(const std::string& dir,
                                          uint64_t tenant);

  /// The canonical (space-free, WriteRelease-legal) label of the release a
  /// tenant fires at stream position \p position: "t<tenant>.w<position>".
  /// Solo reference runs must label with the same function — the label is
  /// part of the release bytes the determinism contract compares.
  static std::string ReleaseLabel(uint64_t tenant, uint64_t position);

 private:
  /// One tenant: engine + double-buffered ingest queue + release artifacts.
  /// Pinned by unique_ptr (the mutex is immovable) and touched by at most
  /// one pump participant at a time; `queue_mu` is the only producer/pump
  /// shared state. The pump-side fields (engine, draining, drain_pos, log,
  /// ...) are owned by whichever participant claimed the tenant in the
  /// current Pump() or RestoreTenants(); readers outside those calls
  /// serialize through the pump lock, which both hold throughout — an
  /// ownership handoff the per-member annotations cannot express, so those
  /// members carry comments, not GUARDED_BY.
  struct Tenant {
    Tenant(uint64_t tenant_id, size_t window, const ButterflyConfig& cfg)
        : id(tenant_id), engine(window, cfg) {}

    uint64_t id;
    StreamPrivacyEngine engine;

    Mutex queue_mu;
    /// Producer side: the only state Ingest() touches concurrently with a
    /// running Pump().
    std::vector<Transaction> queued BFLY_GUARDED_BY(queue_mu);

    std::vector<Transaction> draining;  ///< pump side, swapped out of queued
    size_t drain_pos = 0;               ///< next draining record to append

    /// Stream position of the next due release: window + releases * stride.
    uint64_t next_release_pos = 0;

    std::string log;             ///< concatenated WriteRelease bytes
    uint64_t releases = 0;
    LatencyHistogram latencies;  ///< of this tenant's releases

    /// Stage spans summed over this tenant's releases.
    StageSpans cumulative;
    /// Time pump participants spent in PumpTenant for this tenant.
    double pump_busy_ns = 0;
  };

  explicit EngineFleet(FleetConfig config);

  /// Drains one tenant's buffered records into its engine, releasing at
  /// every release point it crosses; returns the releases emitted.
  size_t PumpTenant(Tenant* tenant);

  /// Restores one tenant from its snapshot under \p dir, if there is one
  /// (RestoreTenants' per-tenant body).
  Status RestoreTenant(Tenant* tenant, const std::string& dir);

  /// One tenant's release: sanitize, serialize into the log, account.
  void ReleaseTenant(Tenant* tenant);

  FleetConfig config_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  ThreadPool* pool_ = nullptr;  ///< shared, not owned (see SharedPool)

  /// Serializes the fleet-level entry points: Pump() holds it for the whole
  /// drain; Stats(), CheckpointNextTenant() and RestoreTenants() take it so
  /// a monitoring or checkpointing thread never observes (or mutates)
  /// engines mid-drain. Ingest() deliberately does NOT take it — producers
  /// only touch queue_mu, so ingest stays wait-free against a long pump.
  /// Lock order: pump_mu_ before any tenant's queue_mu.
  mutable Mutex pump_mu_;
  size_t checkpoint_cursor_ BFLY_GUARDED_BY(pump_mu_) = 0;
  uint64_t checkpoints_written_ BFLY_GUARDED_BY(pump_mu_) = 0;
  double pump_wall_ns_ BFLY_GUARDED_BY(pump_mu_) = 0;
  double restore_wall_ns_ BFLY_GUARDED_BY(pump_mu_) = 0;
};

}  // namespace butterfly

#endif  // BUTTERFLY_SERVICE_ENGINE_FLEET_H_
