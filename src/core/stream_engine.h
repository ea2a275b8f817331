/// \file stream_engine.h
/// \brief StreamPrivacyEngine: the end-to-end pipeline of the paper —
/// Moment mining over a sliding window with Butterfly sanitization on top.
/// This is the primary public entry point for applications.
///
/// The release surface is one call: Release() returns a ReleaseResult
/// bundling the sanitized output with its ReleaseStats (the StageSpans of
/// the release, its epoch, epsilon and counts). The engine also
/// checkpoints: Checkpoint/Restore (and the file-level wrappers in
/// persist/engine_checkpoint.h) capture every piece of state a
/// bit-identical resume needs.
///
/// Release() runs to completion on the calling thread: the walk to every
/// frequent itemset (unless RawOutput() already made it for this window),
/// the FEC partition, then the policy's bias, noise and emit stages, in that
/// order.
/// Each window's output is expanded once and partitioned once per release;
/// nothing derived from a window outlives it except what the checkpoint
/// carries.

#ifndef BUTTERFLY_CORE_STREAM_ENGINE_H_
#define BUTTERFLY_CORE_STREAM_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "common/status.h"
#include "common/timing.h"
#include "core/butterfly.h"
#include "moment/moment.h"
#include "policy/release_policy.h"

namespace butterfly {

namespace persist {
class CheckpointWriter;
class CheckpointReader;
}  // namespace persist

/// What one Release() returns: the sanitized output plus its statistics.
/// Release() does not read the window index, so its memory gauge is not
/// here; call `miner().bitmap_index().MemoryStats()` for it.
struct ReleaseResult {
  SanitizedOutput output;
  ReleaseStats stats;
};

class StreamPrivacyEngine {
 public:
  /// \param window_capacity sliding-window size H.
  /// \param config Butterfly configuration (carries C and K). Validated by
  ///        Create; the ctor asserts.
  static Result<StreamPrivacyEngine> Create(size_t window_capacity,
                                            const ButterflyConfig& config);

  /// The checks Create runs, without building an engine: a positive H, at
  /// most kMaxHybridWindow under config.hybrid_index, and
  /// ButterflyConfig::Validate. InvalidArgument on a failure.
  static Status ValidateArgs(size_t window_capacity,
                             const ButterflyConfig& config);

  StreamPrivacyEngine(size_t window_capacity, const ButterflyConfig& config)
      : miner_(window_capacity, config.min_support,
               config.hybrid_index ? IndexRowStore::kHybrid
                                   : IndexRowStore::kDense),
        config_(config),
        policy_(MakeReleasePolicy(config)) {}

  /// Feeds the next stream record. Precondition: the record does not hold
  /// kInvalidItem (EngineFleet::Ingest rejects one that does). The miner's
  /// incremental maintenance is timed into the next Release()'s mine span,
  /// and freeing the previous window's expansion, when there is one, into
  /// its expand span.
  void Append(Transaction t) {
    StageClock clock(&pending_);
    miner_.Append(std::move(t));
    clock.Lap(Stage::kMine);
    if (raw_) {
      raw_.reset();
      clock.Lap(Stage::kExpand);
    }
  }

  /// True once the window holds H records.
  bool WindowFull() const { return miner_.window().Full(); }

  /// The raw (unprotected) full frequent-itemset output — what a mining
  /// system without output-privacy protection would publish.
  ///
  /// Freshness: the first call after an Append() or a Restore() walks the
  /// miner's CET for every frequent itemset (miner().GetAllFrequent()) and
  /// keeps the result; later calls, and Release(), return that same object.
  /// The returned reference is invalidated by the next Append() or Restore()
  /// — copy it to keep it.
  const MiningOutput& RawOutput();

  /// The sanitized release for the current window, with per-stage stats.
  ///
  /// Routes RawOutput() through the configured ReleasePolicy, together with
  /// its FEC partition, built from scratch for this release. The window is
  /// expanded once whether or not the caller called RawOutput() first, and
  /// the release is the same either way. Its spans hold every stage timed
  /// since the previous Release() (or restore): the appends' mine and
  /// expand laps, the expansion, this release's partition and the policy's
  /// stages.
  ReleaseResult Release();

  const MomentMiner& miner() const { return miner_; }

  /// The configured release backend.
  const ReleasePolicy& release_policy() const { return *policy_; }

  /// The epoch the next release will be drawn under (= releases emitted so
  /// far under this policy). Works for every backend — use this instead of
  /// sanitizer().epoch().
  uint64_t release_epoch() const { return policy_->epoch(); }

  /// The wrapped ButterflyEngine, for Butterfly-specific consumers (noise
  /// envelopes for the interval attack, bias audits). Checks that the
  /// configured policy is in fact Butterfly — call only when
  /// config().policy == ReleasePolicyKind::kButterfly.
  ButterflyEngine& sanitizer();
  const ButterflyEngine& sanitizer() const;

  const ButterflyConfig& config() const { return config_; }
  /// The FEC partition of the most recent release.
  const FecPartitioner& fec_partition() const { return partition_; }

  /// Serializes the full engine: window capacity + config header (which
  /// carries the policy identity and knobs, but not `threads`, which no
  /// release reads), then the miner (min_support and the window; restore
  /// rebuilds the bitmap index and the CET from them) and the release
  /// policy's own section (for Butterfly: epoch and republish cache; for the
  /// DP backends: epoch and cumulative budget). The expansion and the FEC
  /// partition are derived from the window and are not written — the first
  /// post-restore Release rebuilds both with identical content.
  /// See persist/engine_checkpoint.h for the file-level wrappers.
  void Checkpoint(persist::CheckpointWriter* writer) const;

  /// Restores this engine from a checkpoint whose window capacity and config
  /// exactly match this engine's (the CONF encodings are compared byte for
  /// byte; returns kInvalidArgument otherwise). After a successful restore
  /// the engine emits byte-identical releases to the uninterrupted run it
  /// was checkpointed from.
  ///
  /// All or nothing: the snapshot is restored into a fresh engine built from
  /// this engine's capacity and config, which replaces this one only on
  /// success. On any error this engine is left exactly as it was — same
  /// window, stream position, release epoch and pins. On success, references
  /// obtained from RawOutput(), release_policy() or sanitizer() are
  /// invalidated.
  Status Restore(persist::CheckpointReader* reader);

  /// Builds an engine directly from a checkpoint payload — the capacity and
  /// config are read from the snapshot itself (and re-validated), so the
  /// caller needs nothing but the file.
  static Result<StreamPrivacyEngine> FromCheckpoint(
      persist::CheckpointReader* reader);

 private:
  /// Restores the component sections that follow the capacity+config header
  /// into this engine, which must be freshly built: on error its state is
  /// unspecified.
  Status RestoreBody(persist::CheckpointReader* reader);

  MomentMiner miner_;
  ButterflyConfig config_;
  std::unique_ptr<ReleasePolicy> policy_;
  /// The current window's full output (see RawOutput); empty after an
  /// Append or a Restore until the next expansion.
  std::optional<MiningOutput> raw_;
  /// Release-path FEC partition, rebuilt from raw_ on every release.
  FecPartitioner partition_;
  /// Stage time not yet reported by a Release().
  StageSpans pending_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_STREAM_ENGINE_H_
