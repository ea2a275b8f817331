#include "core/stream_engine.h"

#include <bit>
#include <cstdint>

#include "common/check.h"
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

ReleaseResult StreamPrivacyEngine::Release() {
  ReleaseResult result;
  const MiningOutput& raw = miner_.GetAllFrequentIncremental();
  Stopwatch sync_watch;
  partition_.Sync(raw, miner_.expansion_version(),
                  miner_.last_expansion_delta());
  const double sync_ns = sync_watch.Seconds() * 1e9;
  WindowContext ctx;
  ctx.window_size = static_cast<Support>(miner_.window().size());
  ctx.stream_position = miner_.window().stream_position();
  ctx.fecs = &partition_.view();
  PolicyStats policy_stats;
  result.output = policy_->Release(raw, ctx, &policy_stats);
  CopyPolicyStats(policy_stats, &result.stats);
  result.stats.partition_ns += sync_ns;
  result.stats.mine_ns = mine_ns_;
  mine_ns_ = 0;
  result.stats.frequent_itemsets = raw.size();
  result.stats.fec_count = partition_.view().size();
  FillIndexMemoryStats(miner_.bitmap_index(), &result.stats);
  return result;
}

void StreamPrivacyEngine::Checkpoint(persist::CheckpointWriter* writer) const {
  writer->Tag(kEngineTag);
  writer->U64(miner_.window().capacity());
  WriteConfig(writer, config());
  miner_.Checkpoint(writer);
  policy_->Checkpoint(writer);
}

Status StreamPrivacyEngine::RestoreBody(persist::CheckpointReader* reader) {
  if (Status s = miner_.Restore(reader); !s.ok()) return s;
  if (Status s = policy_->Restore(reader); !s.ok()) return s;
  // Reconstructible state: the FEC partition resyncs from the first
  // post-restore expansion, and the mine-time accumulator restarts.
  partition_.Reset();
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
