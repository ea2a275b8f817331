#include "core/stream_engine.h"

#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "persist/serializer.h"
#include "policy/butterfly_policy.h"

namespace butterfly {

namespace {

constexpr uint32_t kEngineTag = persist::SectionTag('S', 'P', 'E', '1');
constexpr uint32_t kConfigTag = persist::SectionTag('C', 'O', 'N', 'F');

/// Serializes every ButterflyConfig field a release reads, in a fixed order
/// (`threads` is read by none and is not written). The config is part of
/// the snapshot so LoadEngineCheckpoint is self-contained, and so a restore
/// into a mismatched engine fails loudly instead of resuming under
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
  writer->Bool(config.hybrid_index);
  writer->U64(config.seed);
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
  config->hybrid_index = reader->Bool();
  config->seed = reader->U64();
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

/// True iff \p a and \p b serialize to the same CONF bytes. F64 writes bit
/// images, so doubles compare bit-exactly.
bool SameEncoding(const ButterflyConfig& a, const ButterflyConfig& b) {
  persist::CheckpointWriter wa, wb;
  WriteConfig(&wa, a);
  WriteConfig(&wb, b);
  return wa.data() == wb.data();
}

}  // namespace

Status StreamPrivacyEngine::ValidateArgs(size_t window_capacity,
                                         const ButterflyConfig& config) {
  if (window_capacity == 0) {
    return Status::InvalidArgument("window_capacity must be positive");
  }
  if (window_capacity > kMaxWindow) {
    return Status::InvalidArgument(
        "window_capacity must be at most " + std::to_string(kMaxWindow) +
        " records, not " + std::to_string(window_capacity));
  }
  return config.Validate();
}

Result<StreamPrivacyEngine> StreamPrivacyEngine::Create(
    size_t window_capacity, const ButterflyConfig& config) {
  if (Status s = ValidateArgs(window_capacity, config); !s.ok()) return s;
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

const MiningOutput& StreamPrivacyEngine::RawOutput() {
  if (!raw_) {
    StageClock clock(&pending_);
    raw_ = miner_.GetAllFrequent();
    clock.Lap(Stage::kExpand);
  }
  return *raw_;
}

ReleaseResult StreamPrivacyEngine::Release() {
  ReleaseResult result;
  const MiningOutput& raw = RawOutput();
  StageClock clock(&pending_);
  partition_.Rebuild(raw);
  clock.Lap(Stage::kPartition);
  result.stats.spans = std::exchange(pending_, StageSpans{});
  WindowContext ctx;
  ctx.window_size = static_cast<Support>(miner_.window().size());
  ctx.stream_position = miner_.window().stream_position();
  result.output = policy_->Release(raw, ctx, &result.stats);
  result.stats.frequent_itemsets = raw.size();
  result.stats.fec_count = partition_.view().size();
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
  return policy_->Restore(reader);
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
  if (!SameEncoding(config, config_)) {
    return Status::InvalidArgument(
        "checkpoint config does not match this engine's; restore into an "
        "engine created with the identical configuration (or use "
        "FromCheckpoint / LoadEngineCheckpoint)");
  }
  // All or nothing: the sections are restored into a fresh engine, which
  // replaces this one only once every section has parsed. The fresh
  // engine's derived state (expansion, partition, pending spans) is empty.
  StreamPrivacyEngine fresh(static_cast<size_t>(capacity), config_);
  if (Status s = fresh.RestoreBody(reader); !s.ok()) return s;
  *this = std::move(fresh);
  return Status::OK();
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
