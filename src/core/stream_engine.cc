#include "core/stream_engine.h"

#include <bit>
#include <cstdint>
#include <memory>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "persist/serializer.h"
#include "policy/butterfly_policy.h"

namespace butterfly {

namespace {

constexpr uint32_t kEngineTag = persist::SectionTag('S', 'P', 'E', '1');
constexpr uint32_t kConfigTag = persist::SectionTag('C', 'O', 'N', 'F');

/// Serializes every ButterflyConfig field in a fixed order. The config is
/// part of the snapshot so LoadEngineCheckpoint is self-contained, and so a
/// restore into a mismatched engine fails loudly instead of resuming under
/// different parameters (which would silently break the determinism and the
/// privacy guarantees the checkpoint exists to preserve).
void WriteConfig(persist::CheckpointWriter* writer,
                 const ButterflyConfig& config) {
  writer->Tag(kConfigTag);
  writer->F64(config.epsilon);
  writer->F64(config.delta);
  writer->I64(config.min_support);
  writer->I64(config.vulnerable_support);
  writer->U8(static_cast<uint8_t>(config.scheme));
  writer->F64(config.lambda);
  writer->U64(config.order_opt.gamma);
  writer->U64(config.order_opt.max_states);
  writer->U64(config.order_opt.max_candidates);
  writer->Bool(config.republish_cache);
  writer->Bool(config.cache_bias_settings);
  writer->I64(config.bias_cache_tolerance);
  writer->U64(config.bias_memo_capacity);
  writer->Bool(config.hybrid_index);
  writer->U64(config.seed);
  writer->I64(config.threads);
  writer->U8(static_cast<uint8_t>(config.policy));
  writer->F64(config.policy_epsilon);
  writer->U64(config.policy_top_k);
}

Status ReadConfig(persist::CheckpointReader* reader, ButterflyConfig* config) {
  if (Status s = reader->ExpectTag(kConfigTag, "engine config"); !s.ok()) {
    return s;
  }
  config->epsilon = reader->F64();
  config->delta = reader->F64();
  config->min_support = reader->I64();
  config->vulnerable_support = reader->I64();
  const uint8_t scheme = reader->U8();
  if (reader->ok() && scheme > static_cast<uint8_t>(ButterflyScheme::kHybrid)) {
    return reader->Fail("checkpoint corrupt: unknown scheme value");
  }
  config->scheme = static_cast<ButterflyScheme>(scheme);
  config->lambda = reader->F64();
  config->order_opt.gamma = reader->U64();
  config->order_opt.max_states = reader->U64();
  config->order_opt.max_candidates = reader->U64();
  config->republish_cache = reader->Bool();
  config->cache_bias_settings = reader->Bool();
  config->bias_cache_tolerance = reader->I64();
  config->bias_memo_capacity = reader->U64();
  config->hybrid_index = reader->Bool();
  config->seed = reader->U64();
  config->threads = reader->I64();
  const uint8_t policy = reader->U8();
  if (reader->ok() &&
      policy > static_cast<uint8_t>(ReleasePolicyKind::kHeavyHitter)) {
    return reader->Fail("checkpoint corrupt: unknown release policy value");
  }
  config->policy = static_cast<ReleasePolicyKind>(policy);
  config->policy_epsilon = reader->F64();
  config->policy_top_k = static_cast<size_t>(reader->U64());
  return reader->status();
}

/// Bit-exact double comparison (configs never hold NaN — Validate rejects
/// them — but bit comparison keeps the check total anyway).
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameConfig(const ButterflyConfig& a, const ButterflyConfig& b) {
  return SameBits(a.epsilon, b.epsilon) && SameBits(a.delta, b.delta) &&
         a.min_support == b.min_support &&
         a.vulnerable_support == b.vulnerable_support &&
         a.scheme == b.scheme && SameBits(a.lambda, b.lambda) &&
         a.order_opt.gamma == b.order_opt.gamma &&
         a.order_opt.max_states == b.order_opt.max_states &&
         a.order_opt.max_candidates == b.order_opt.max_candidates &&
         a.republish_cache == b.republish_cache &&
         a.cache_bias_settings == b.cache_bias_settings &&
         a.bias_cache_tolerance == b.bias_cache_tolerance &&
         a.bias_memo_capacity == b.bias_memo_capacity &&
         a.hybrid_index == b.hybrid_index && a.seed == b.seed &&
         a.threads == b.threads && a.policy == b.policy &&
         SameBits(a.policy_epsilon, b.policy_epsilon) &&
         a.policy_top_k == b.policy_top_k;
}

/// Maps a policy's per-release stats into the engine-level snapshot.
void CopyPolicyStats(const PolicyStats& policy, EngineStats* stats) {
  stats->partition_ns = policy.partition_ns;
  stats->bias_ns = policy.bias_ns;
  stats->noise_ns = policy.noise_ns;
  stats->emit_ns = policy.emit_ns;
  stats->bias_cache_hit = policy.bias_cache_hit;
  stats->bias_memo_hit = policy.bias_memo_hit;
  stats->bias_memo_hits = policy.bias_memo_hits;
  stats->bias_memo_misses = policy.bias_memo_misses;
  stats->epoch = policy.epoch;
  stats->epsilon_spent = policy.epsilon_spent;
  stats->epsilon_cumulative = policy.epsilon_cumulative;
}

}  // namespace

void FillIndexMemoryStats(const WindowBitmapIndex& index, EngineStats* stats) {
  const IndexMemoryStats mem = index.MemoryStats();
  stats->index_bytes = mem.index_bytes;
  stats->index_dense_equivalent_bytes = mem.dense_equivalent_bytes;
  stats->index_array_rows = mem.array_rows;
  stats->index_bitmap_rows = mem.bitmap_rows;
  stats->index_run_rows = mem.run_rows;
  stats->index_pinned_rows = mem.pinned_rows;
}

Result<StreamPrivacyEngine> StreamPrivacyEngine::Create(
    size_t window_capacity, const ButterflyConfig& config) {
  if (window_capacity == 0) {
    return Status::InvalidArgument("window_capacity must be positive");
  }
  Status status = config.Validate();
  if (!status.ok()) return status;
  return StreamPrivacyEngine(window_capacity, config);
}

ButterflyEngine& StreamPrivacyEngine::sanitizer() {
  BFLY_CHECK_MSG(policy_->kind() == ReleasePolicyKind::kButterfly,
                 "sanitizer() requires the butterfly release policy; this "
                 "engine runs a DP backend — use release_policy() instead");
  return static_cast<ButterflyReleasePolicy&>(*policy_).engine();
}

const ButterflyEngine& StreamPrivacyEngine::sanitizer() const {
  BFLY_CHECK_MSG(policy_->kind() == ReleasePolicyKind::kButterfly,
                 "sanitizer() requires the butterfly release policy; this "
                 "engine runs a DP backend — use release_policy() instead");
  return static_cast<const ButterflyReleasePolicy&>(*policy_).engine();
}

WindowContext StreamPrivacyEngine::MakeWindowContext(
    const FecPartitioner& part) const {
  WindowContext ctx;
  ctx.window_size = static_cast<Support>(miner_.window().size());
  ctx.stream_position = miner_.window().stream_position();
  ctx.fecs = &part.view();
  ctx.total_itemsets = part.total_members();
  return ctx;
}

ReleaseResult StreamPrivacyEngine::Release() {
  // The OnWorkerThread() leg mirrors ReleaseAsync's re-entrancy guard:
  // called from a pool task (a fleet release batch), the release must run
  // inline rather than bounce through an async flight.
  if (pipelined_ && pipeline_pool_ != nullptr &&
      !ThreadPool::OnWorkerThread()) {
    return ReleaseAsync().Wait();
  }
  ReleaseResult result;
  const MiningOutput& raw = miner_.GetAllFrequentIncremental();
  FecPartitioner& part = partitions_[active_partition_];
  Stopwatch sync_watch;
  part.Sync(raw, miner_.expansion_version(), miner_.last_expansion_delta());
  const double sync_ns = sync_watch.Seconds() * 1e9;
  PolicyStats policy_stats;
  result.output = policy_->Release(raw, MakeWindowContext(part), &policy_stats);
  CopyPolicyStats(policy_stats, &result.stats);
  result.stats.partition_ns += sync_ns;
  result.stats.mine_ns = mine_ns_;
  mine_ns_ = 0;
  result.stats.frequent_itemsets = raw.size();
  result.stats.fec_count = part.view().size();
  FillIndexMemoryStats(miner_.bitmap_index(), &result.stats);
  return result;
}

ReleaseResult StreamPrivacyEngine::ReleaseTicket::Wait() {
  BFLY_CHECK_MSG(flight_ != nullptr,
                 "Wait() on an empty or already-consumed release ticket");
  ReleaseResult result;
  {
    MutexLock lock(&flight_->mu);
    while (!flight_->done) flight_->cv.Wait(&flight_->mu);
    result = std::move(flight_->result);
  }
  flight_.reset();
  return result;
}

void StreamPrivacyEngine::SetPipelined(bool on) {
  if (!on) JoinInflight();
  pipelined_ = on;
  pipeline_pool_ = on ? SharedPool(ResolveThreadCount(config().threads))
                      : nullptr;
}

bool StreamPrivacyEngine::ReleaseInFlight() const {
  if (!inflight_) return false;
  MutexLock lock(&inflight_->mu);
  return !inflight_->done;
}

void StreamPrivacyEngine::JoinInflight() {
  if (!inflight_) return;
  {
    MutexLock lock(&inflight_->mu);
    while (!inflight_->done) inflight_->cv.Wait(&inflight_->mu);
  }
  inflight_.reset();
}

StreamPrivacyEngine::ReleaseTicket StreamPrivacyEngine::ReleaseAsync() {
  auto flight = std::make_shared<ReleaseTicket::Flight>();
  // Re-entrancy guard: inside a fleet, engine calls run on pool workers.
  // A pipelined ReleaseAsync would Submit the sanitize stage and the next
  // one would JoinInflight() — a worker blocking on a task queued *behind*
  // every other release task, which deadlocks once all workers wait at
  // once. On a worker thread the flight therefore completes synchronously
  // (the batch-level overlap the fleet scheduler provides is the same
  // overlap pipelining buys a solo engine).
  if (!pipelined_ || pipeline_pool_ == nullptr ||
      ThreadPool::OnWorkerThread()) {
    // Degenerate (serial) flight: complete before anyone can wait on it.
    flight->result = Release();
    MutexLock lock(&flight->mu);
    flight->done = true;
    return ReleaseTicket(std::move(flight));
  }

  // Caller-side stage: snapshot everything the background stage reads. The
  // previous flight may still be sanitizing the *other* partition buffer —
  // the mining view and the idle buffer are disjoint from it, so this whole
  // stage overlaps with that flight.
  const MiningOutput& raw = miner_.GetAllFrequentIncremental();
  const uint64_t version = miner_.expansion_version();
  const MiningOutputDelta& delta = miner_.last_expansion_delta();
  const size_t next = active_partition_ ^ 1;
  FecPartitioner& part = partitions_[next];
  Stopwatch sync_watch;
  if (has_pending_delta_) part.ApplyDelta(pending_version_, pending_delta_);
  part.Sync(raw, version, delta);
  const double sync_ns = sync_watch.Seconds() * 1e9;
  // Save this release's delta so the now-idle buffer (which will be exactly
  // one version behind when it is next used) can catch up incrementally.
  pending_delta_ = delta;
  pending_version_ = version;
  has_pending_delta_ = true;
  active_partition_ = next;

  EngineStats stats;
  stats.mine_ns = mine_ns_;
  mine_ns_ = 0;
  stats.frequent_itemsets = raw.size();
  stats.fec_count = part.view().size();
  // Index memory must be snapshotted on the caller thread: the miner keeps
  // mutating the row table while the flight sanitizes.
  FillIndexMemoryStats(miner_.bitmap_index(), &stats);
  // The context is snapshotted here, on the caller's thread: window size and
  // stream position advance with the very next Append, and the view pointer
  // must name the buffer synced above, not whichever is active later.
  const WindowContext ctx = MakeWindowContext(part);

  // The policy is exclusive: join the previous flight before handing it
  // the new window. (Submit's queue mutex publishes the partition writes
  // above to the worker.)
  JoinInflight();
  flight->result.stats = stats;
  inflight_ = flight;
  pipeline_pool_->Submit([this, flight, ctx, sync_ns] {
    PolicyStats policy_stats;
    flight->result.output = policy_->ReleaseFromView(ctx, &policy_stats);
    EngineStats& s = flight->result.stats;
    CopyPolicyStats(policy_stats, &s);
    s.partition_ns += sync_ns;
    {
      MutexLock lock(&flight->mu);
      flight->done = true;
    }
    flight->cv.NotifyAll();
  });
  return ReleaseTicket(std::move(flight));
}

void StreamPrivacyEngine::Checkpoint(persist::CheckpointWriter* writer) const {
  BFLY_CHECK_MSG(!ReleaseInFlight(),
                 "checkpoint requires no in-flight pipelined release; Wait() "
                 "on the outstanding ticket first");
  writer->Tag(kEngineTag);
  writer->U64(miner_.window().capacity());
  WriteConfig(writer, config());
  miner_.Checkpoint(writer);
  policy_->Checkpoint(writer);
}

Status StreamPrivacyEngine::RestoreBody(persist::CheckpointReader* reader) {
  JoinInflight();
  if (Status s = miner_.Restore(reader); !s.ok()) return s;
  if (Status s = policy_->Restore(reader); !s.ok()) return s;
  // Reconstructible state: the FEC partitions resync from the first
  // post-restore expansion, and the mine-time accumulator restarts. The
  // pipelining mode itself is scheduling, not state, and survives as set.
  partitions_[0].Reset();
  partitions_[1].Reset();
  active_partition_ = 0;
  has_pending_delta_ = false;
  pending_version_ = 0;
  pending_delta_.Reset();
  mine_ns_ = 0;
  return Status::OK();
}

Status StreamPrivacyEngine::Restore(persist::CheckpointReader* reader) {
  if (Status s = reader->ExpectTag(kEngineTag, "stream engine"); !s.ok()) {
    return s;
  }
  const uint64_t capacity = reader->U64();
  ButterflyConfig config;
  if (Status s = ReadConfig(reader, &config); !s.ok()) return s;
  if (capacity != miner_.window().capacity()) {
    return Status::InvalidArgument(
        "checkpoint window capacity " + std::to_string(capacity) +
        " does not match this engine's " +
        std::to_string(miner_.window().capacity()));
  }
  if (!SameConfig(config, this->config())) {
    return Status::InvalidArgument(
        "checkpoint config does not match this engine's; restore into an "
        "engine created with the identical configuration (or use "
        "FromCheckpoint / LoadEngineCheckpoint)");
  }
  return RestoreBody(reader);
}

Result<StreamPrivacyEngine> StreamPrivacyEngine::FromCheckpoint(
    persist::CheckpointReader* reader) {
  if (Status s = reader->ExpectTag(kEngineTag, "stream engine"); !s.ok()) {
    return s;
  }
  const uint64_t capacity = reader->U64();
  ButterflyConfig config;
  if (Status s = ReadConfig(reader, &config); !s.ok()) return s;
  Result<StreamPrivacyEngine> engine =
      Create(static_cast<size_t>(capacity), config);
  if (!engine.ok()) return engine.status();
  if (Status s = engine->RestoreBody(reader); !s.ok()) return s;
  return engine;
}

}  // namespace butterfly
