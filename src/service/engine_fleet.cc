#include "service/engine_fleet.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/timing.h"
#include "core/release_log.h"
#include "persist/checkpoint.h"
#include "persist/engine_checkpoint.h"
#include "persist/serializer.h"

namespace butterfly {

void LatencyHistogram::Record(double ns) {
  // Bucket b holds [kMinNs * 2^(b / k), kMinNs * 2^((b + 1) / k)) for k
  // buckets per octave; the comparison also sends NaN to bucket 0.
  const double position =
      std::log2(ns / kMinNs) * static_cast<double>(kBucketsPerOctave);
  size_t bucket = 0;
  if (position > 0) {
    bucket = position >= static_cast<double>(kBuckets - 1)
                 ? kBuckets - 1
                 : static_cast<size_t>(position);
  }
  ++counts_[bucket];
}

LatencyHistogram& LatencyHistogram::operator+=(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  return *this;
}

uint64_t LatencyHistogram::count() const {
  return std::accumulate(counts_.begin(), counts_.end(), uint64_t{0});
}

double LatencyHistogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  const auto rank =
      static_cast<uint64_t>(static_cast<double>(total - 1) * q);
  uint64_t seen = 0;
  size_t bucket = 0;
  for (; bucket + 1 < kBuckets; ++bucket) {
    seen += counts_[bucket];
    if (seen > rank) break;
  }
  return kMinNs * std::exp2((static_cast<double>(bucket) + 0.5) /
                            static_cast<double>(kBucketsPerOctave));
}

ButterflyConfig TenantEngineConfig(const FleetConfig& config, uint64_t tenant) {
  ButterflyConfig engine = config.engine;
  engine.seed = DeriveTenantSeed(config.engine.seed, tenant);
  if (!config.tenant_policies.empty()) {
    engine.policy =
        config.tenant_policies[tenant % config.tenant_policies.size()];
  }
  return engine;
}

Status FleetConfig::Validate() const {
  if (tenants == 0) return Status::InvalidArgument("fleet needs >= 1 tenant");
  if (tenants > kMaxTenants) {
    return Status::InvalidArgument("fleet tenants must be at most " +
                                   std::to_string(kMaxTenants));
  }
  if (stride == 0) return Status::InvalidArgument("stride must be positive");
  if (threads < 0 || threads > kMaxThreads) {
    return Status::InvalidArgument("fleet threads must lie in [0, " +
                                   std::to_string(kMaxThreads) +
                                   "] (0 = hardware concurrency)");
  }
  // Seed derivation does not affect validity, so validating one tenant per
  // distinct policy assignment covers every tenant (with no per-tenant
  // policies, that is just tenant 0). This also checks the window.
  const size_t distinct =
      tenant_policies.empty() ? 1 : std::min(tenants, tenant_policies.size());
  for (uint64_t t = 0; t < distinct; ++t) {
    if (Status s = StreamPrivacyEngine::ValidateArgs(
            window, TenantEngineConfig(*this, t));
        !s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

EngineFleet::EngineFleet(FleetConfig config) : config_(std::move(config)) {
  pool_ = SharedPool(ResolveThreadCount(config_.threads));
  tenants_.reserve(config_.tenants);
  for (uint64_t id = 0; id < config_.tenants; ++id) {
    auto tenant =
        std::make_unique<Tenant>(id, config_.window, TenantEngineConfig(config_, id));
    tenant->next_release_pos = config_.window;
    tenants_.push_back(std::move(tenant));
  }
}

EngineFleet::EngineFleet(EngineFleet&& other)
    : config_(std::move(other.config_)),
      tenants_(std::move(other.tenants_)),
      pool_(other.pool_) {
  // A fleet is only moved before concurrent use, but the source's counters
  // are still guarded members — take its (uncontended) lock to read them.
  MutexLock lock(&other.pump_mu_);
  checkpoint_cursor_ = other.checkpoint_cursor_;
  checkpoints_written_ = other.checkpoints_written_;
  pump_wall_ns_ = other.pump_wall_ns_;
  restore_wall_ns_ = other.restore_wall_ns_;
}

Result<EngineFleet> EngineFleet::Create(const FleetConfig& config) {
  if (Status s = config.Validate(); !s.ok()) return s;
  return EngineFleet(config);
}

Status EngineFleet::Ingest(uint64_t tenant, Transaction t) {
  if (tenant >= tenants_.size()) {
    return Status::InvalidArgument("no such tenant: " + std::to_string(tenant));
  }
  // Items are sorted, so only the last can be the reserved id.
  if (!t.items.empty() && t.items.items().back() == kInvalidItem) {
    return Status::InvalidArgument("record for tenant " +
                                   std::to_string(tenant) +
                                   " holds the reserved item id " +
                                   std::to_string(kInvalidItem));
  }
  Tenant& state = *tenants_[tenant];
  MutexLock lock(&state.queue_mu);
  state.queued.push_back(std::move(t));
  return Status::OK();
}

size_t EngineFleet::PumpTenant(Tenant* tenant) {
  size_t released = 0;
  for (;;) {
    // Release points are exact stream positions: a due tenant releases
    // before appending anything further, so the window it sanitizes is
    // byte-for-byte the window a solo serial run would have released.
    if (tenant->engine.miner().window().stream_position() >=
        tenant->next_release_pos) {
      ReleaseTenant(tenant);
      ++released;
      continue;
    }
    if (tenant->drain_pos == tenant->draining.size()) {
      tenant->draining.clear();
      tenant->drain_pos = 0;
      MutexLock lock(&tenant->queue_mu);
      tenant->draining.swap(tenant->queued);
      if (tenant->draining.empty()) return released;
    }
    tenant->engine.Append(std::move(tenant->draining[tenant->drain_pos++]));
  }
}

void EngineFleet::ReleaseTenant(Tenant* tenant) {
  Stopwatch watch;
  ReleaseResult result = tenant->engine.Release();
  tenant->latencies.Record(watch.Seconds() * 1e9);

  Status written = AppendRelease(
      &tenant->log,
      ReleaseLabel(tenant->id, static_cast<uint64_t>(
                                   tenant->engine.miner().window()
                                       .stream_position())),
      result.output);
  BFLY_CHECK_MSG(written.ok(), "in-memory release serialization failed");
  ++tenant->releases;
  tenant->next_release_pos += config_.stride;
  tenant->cumulative += result.stats.spans;
}

size_t EngineFleet::Pump() {
  // Held for the entire drain: a Stats()/checkpoint/restore caller on
  // another thread waits for a quiescent fleet instead of reading engines
  // that pump participants are mutating. The participants below access
  // tenants without this lock — each tenant is owned by exactly one of them
  // for the whole call (see Tenant's comment) — which is why the lock must
  // span the whole drain.
  MutexLock pump_lock(&pump_mu_);
  const Stopwatch wall;
  // One slot per tenant. The caller and the pool's workers claim one tenant
  // at a time off ParallelFor's shared cursor, so uneven per-tenant costs
  // balance to within one tenant, and each tenant's appends and releases
  // run back to back on one thread.
  std::vector<size_t> released(tenants_.size(), 0);
  ParallelFor(pool_, tenants_.size(), 1, [this, &released](size_t begin,
                                                            size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Tenant* tenant = tenants_[i].get();
      const Stopwatch busy;
      released[i] = PumpTenant(tenant);
      tenant->pump_busy_ns += busy.Seconds() * 1e9;
    }
  });
  pump_wall_ns_ += wall.Seconds() * 1e9;
  return std::accumulate(released.begin(), released.end(), size_t{0});
}

const std::string& EngineFleet::ReleaseLog(uint64_t tenant) const {
  BFLY_CHECK(tenant < tenants_.size());
  return tenants_[tenant]->log;
}

uint64_t EngineFleet::ReleaseCount(uint64_t tenant) const {
  BFLY_CHECK(tenant < tenants_.size());
  return tenants_[tenant]->releases;
}

uint64_t EngineFleet::StreamPosition(uint64_t tenant) const {
  BFLY_CHECK(tenant < tenants_.size());
  return static_cast<uint64_t>(
      tenants_[tenant]->engine.miner().window().stream_position());
}

const StreamPrivacyEngine& EngineFleet::engine(uint64_t tenant) const {
  BFLY_CHECK(tenant < tenants_.size());
  return tenants_[tenant]->engine;
}

FleetStats EngineFleet::Stats() const {
  // Excludes Pump(): without this, a monitoring thread would read each
  // engine's window position and the pump-side drain counters while pump
  // tasks mutate them — a data race TSAN confirms and the TSA annotations
  // made impossible to reintroduce silently.
  MutexLock pump_lock(&pump_mu_);
  FleetStats stats;
  stats.tenants = tenants_.size();
  stats.threads = ResolveThreadCount(config_.threads);
  stats.checkpoints_written = checkpoints_written_;
  stats.pump_wall_ns = pump_wall_ns_;
  stats.restore_wall_ns = restore_wall_ns_;

  LatencyHistogram latencies;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    stats.ingested += static_cast<uint64_t>(
        tenant->engine.miner().window().stream_position());
    stats.queued +=
        static_cast<uint64_t>(tenant->draining.size() - tenant->drain_pos);
    {
      MutexLock lock(&tenant->queue_mu);
      stats.queued += static_cast<uint64_t>(tenant->queued.size());
    }
    stats.releases += tenant->releases;
    stats.spans += tenant->cumulative;
    stats.index_bytes +=
        tenant->engine.miner().bitmap_index().MemoryStats().index_bytes;
    stats.pump_busy_ns += tenant->pump_busy_ns;
    latencies += tenant->latencies;
  }
  stats.release_p50_ns = latencies.Quantile(0.5);
  stats.release_p99_ns = latencies.Quantile(0.99);
  return stats;
}

std::string EngineFleet::TenantCheckpointPath(const std::string& dir,
                                              uint64_t tenant) {
  return dir + "/tenant_" + std::to_string(tenant) + ".ckpt";
}

std::string EngineFleet::ReleaseLabel(uint64_t tenant, uint64_t position) {
  return "t" + std::to_string(tenant) + ".w" + std::to_string(position);
}

Result<uint64_t> EngineFleet::CheckpointNextTenant(const std::string& dir) {
  // Excludes Pump(): the cursor advance and the engine serialization must
  // not interleave with a drain mutating the same engine.
  MutexLock pump_lock(&pump_mu_);
  const uint64_t id = checkpoint_cursor_ % tenants_.size();
  checkpoint_cursor_ = (checkpoint_cursor_ + 1) % tenants_.size();
  Status saved = persist::SaveEngineCheckpoint(
      tenants_[id]->engine, TenantCheckpointPath(dir, id));
  if (!saved.ok()) return saved;
  ++checkpoints_written_;
  return id;
}

Status EngineFleet::RestoreTenants(const std::string& dir) {
  MutexLock pump_lock(&pump_mu_);
  const Stopwatch wall;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    MutexLock lock(&tenant->queue_mu);
    if (!tenant->queued.empty() ||
        tenant->drain_pos != tenant->draining.size()) {
      return Status::InvalidArgument(
          "RestoreTenants requires empty ingest queues: tenant " +
          std::to_string(tenant->id) + " has buffered records");
    }
  }
  // One slot per tenant, written only by the participant that claimed it.
  std::vector<Status> restored(tenants_.size());
  ParallelFor(pool_, tenants_.size(), 1,
              [this, &dir, &restored](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  restored[i] = RestoreTenant(tenants_[i].get(), dir);
                }
              });
  restore_wall_ns_ = wall.Seconds() * 1e9;
  for (Status& status : restored) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Status EngineFleet::RestoreTenant(Tenant* tenant, const std::string& dir) {
  Result<std::string> payload =
      persist::ReadCheckpointFile(TenantCheckpointPath(dir, tenant->id));
  if (!payload.ok()) {
    // A missing snapshot is the round-robin steady state (the cursor had
    // not reached this tenant yet); the tenant keeps its current state.
    if (payload.status().code() == StatusCode::kNotFound) return Status::OK();
    return payload.status();
  }
  persist::CheckpointReader reader(*payload);
  // Restore() bit-compares the snapshot's capacity and config against this
  // tenant's (including the derived seed), so a snapshot written by a
  // different tenant or fleet configuration is rejected here.
  if (Status s = tenant->engine.Restore(&reader); !s.ok()) return s;
  tenant->draining.clear();
  tenant->drain_pos = 0;
  tenant->releases = tenant->engine.release_epoch();
  tenant->next_release_pos = config_.window + tenant->releases * config_.stride;
  tenant->log.clear();
  tenant->latencies = LatencyHistogram{};
  tenant->cumulative = StageSpans{};
  if (!reader.AtEnd()) {
    return Status::IOError("checkpoint corrupt: trailing bytes after the "
                           "engine state for tenant " +
                           std::to_string(tenant->id));
  }
  return Status::OK();
}

}  // namespace butterfly
