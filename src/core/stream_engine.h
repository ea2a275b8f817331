/// \file stream_engine.h
/// \brief StreamPrivacyEngine: the end-to-end pipeline of the paper —
/// Moment mining over a sliding window with Butterfly sanitization on top.
/// This is the primary public entry point for applications.
///
/// The release surface is one call: Release() returns a ReleaseResult
/// bundling the sanitized output with an EngineStats snapshot (per-stage
/// nanoseconds, cache-hit flags, the release epoch), so callers no longer
/// juggle the engine's timing accumulator and the sanitizer's stage times
/// as two objects. The engine also checkpoints: Checkpoint/Restore (and the
/// file-level wrappers in persist/engine_checkpoint.h) capture every piece
/// of state a bit-identical resume needs.
///
/// Release() runs to completion on the calling thread: the expansion walk,
/// the FEC sync, then the policy's bias, noise and emit stages, in that
/// order.

#ifndef BUTTERFLY_CORE_STREAM_ENGINE_H_
#define BUTTERFLY_CORE_STREAM_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"
#include "core/butterfly.h"
#include "metrics/timing.h"
#include "moment/moment.h"
#include "policy/release_policy.h"

namespace butterfly {

namespace persist {
class CheckpointWriter;
class CheckpointReader;
}  // namespace persist

/// Per-release pipeline statistics, snapshotted by Release().
struct EngineStats {
  double mine_ns = 0;       ///< miner maintenance since the previous release
  double partition_ns = 0;  ///< FEC sync + profile construction
  double bias_ns = 0;       ///< bias reuse/memo lookup + DP on a miss
  /// Per-itemset perturbation. Under Butterfly this is the one pass over the
  /// FECs that also looks up and pins republished values and assembles the
  /// release.
  double noise_ns = 0;
  /// Butterfly: republish-cache epoch advance + release seal.
  double emit_ns = 0;

  bool bias_cache_hit = false;  ///< previous-window bias reuse fired
  bool bias_memo_hit = false;   ///< cross-window DP memo fired

  /// Cumulative sanitizer DP-memo traffic up to and including this release
  /// (misses count only windows that actually ran the optimizer). Exposed
  /// here so the overhead benchmarks can emit memo hit rates per row.
  uint64_t bias_memo_hits = 0;
  uint64_t bias_memo_misses = 0;

  /// Differential-privacy accounting, filled by the DP release policies
  /// (zero under the Butterfly backend, whose guarantee is the paper's
  /// (epsilon, delta) interval model, not DP). See PolicyStats.
  double epsilon_spent = 0;
  double epsilon_cumulative = 0;

  uint64_t epoch = 0;            ///< the epoch this release was drawn under
  size_t frequent_itemsets = 0;  ///< size of the raw mined output
  size_t fec_count = 0;          ///< frequency equivalence classes released

  /// Window-index memory accounting at release time (see IndexMemoryStats):
  /// payload bytes of the live rows, the dense-bitmap-equivalent bytes of
  /// the same rows, and the live-row histogram by container representation.
  size_t index_bytes = 0;
  size_t index_dense_equivalent_bytes = 0;
  size_t index_array_rows = 0;
  size_t index_bitmap_rows = 0;
  size_t index_run_rows = 0;
  size_t index_pinned_rows = 0;
};

/// What one Release() returns: the sanitized output plus its statistics.
struct ReleaseResult {
  SanitizedOutput output;
  EngineStats stats;
};

/// Copies a window index's IndexMemoryStats into the index_* stat fields.
void FillIndexMemoryStats(const WindowBitmapIndex& index, EngineStats* stats);

class StreamPrivacyEngine {
 public:
  /// \param window_capacity sliding-window size H.
  /// \param config Butterfly configuration (carries C and K). Validated by
  ///        Create; the ctor asserts.
  static Result<StreamPrivacyEngine> Create(size_t window_capacity,
                                            const ButterflyConfig& config);

  StreamPrivacyEngine(size_t window_capacity, const ButterflyConfig& config)
      : miner_(window_capacity, config.min_support,
               config.hybrid_index ? IndexRowStore::kHybrid
                                   : IndexRowStore::kDense),
        config_(config),
        policy_(MakeReleasePolicy(config)) {}

  /// Feeds the next stream record. Time spent in the miner's incremental
  /// maintenance accumulates into the next Release()'s stats.mine_ns.
  void Append(Transaction t) {
    Stopwatch watch;
    miner_.Append(std::move(t));
    mine_ns_ += watch.Seconds() * 1e9;
  }

  /// True once the window holds H records.
  bool WindowFull() const { return miner_.window().Full(); }

  /// The raw (unprotected) full frequent-itemset output — what a mining
  /// system without output-privacy protection would publish.
  ///
  /// Freshness: served from the miner's incremental expansion cache, which
  /// is revalidated on this call, so the content always reflects every
  /// Append made so far (identical to expanding the closed lattice from
  /// scratch). The returned reference is invalidated by the next Append(),
  /// Release(), RawOutput() or Restore() — copy it to keep it.
  const MiningOutput& RawOutput() { return miner_.GetAllFrequentIncremental(); }

  /// The raw closed frequent itemsets (Moment's native output).
  MiningOutput RawClosedOutput() const { return miner_.GetClosedFrequent(); }

  /// The sanitized release for the current window, with per-stage stats.
  ///
  /// Routes through the configured ReleasePolicy. The policy is fed from the
  /// incremental expansion cache by reference — no per-release copy of the
  /// full MiningOutput is materialized — and the FEC partition it receives
  /// is itself incremental: the expansion delta patches only the itemsets
  /// whose support changed since the last release, instead of
  /// re-partitioning and re-sorting every class per window. The release is
  /// bit-identical to sanitizing RawOutput() from scratch.
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
  /// The incrementally maintained FEC partition of the most recent release.
  const FecPartitioner& fec_partition() const { return partition_; }

  /// Serializes the full engine: window capacity + config header (which
  /// carries the policy identity and knobs), then the miner (window, bitmap
  /// index, CET arena) and the release policy's own section (for Butterfly:
  /// epoch, republish cache, previous-window bias settings; for the DP
  /// backends: epoch and cumulative budget). The FEC partition and
  /// the miner's expansion cache are reconstructible and are not written —
  /// the first post-restore Release rebuilds both with identical content.
  /// See persist/engine_checkpoint.h for the file-level wrappers.
  void Checkpoint(persist::CheckpointWriter* writer) const;

  /// Restores this engine from a checkpoint whose window capacity and config
  /// exactly match this engine's (bit-compared; returns kInvalidArgument
  /// otherwise). After a successful restore the engine emits byte-identical
  /// releases to the uninterrupted run it was checkpointed from.
  Status Restore(persist::CheckpointReader* reader);

  /// Builds an engine directly from a checkpoint payload — the capacity and
  /// config are read from the snapshot itself (and re-validated), so the
  /// caller needs nothing but the file.
  static Result<StreamPrivacyEngine> FromCheckpoint(
      persist::CheckpointReader* reader);

 private:
  /// Restores the component sections that follow the capacity+config header.
  Status RestoreBody(persist::CheckpointReader* reader);

  MomentMiner miner_;
  ButterflyConfig config_;
  std::unique_ptr<ReleasePolicy> policy_;
  /// Release-path FEC partition, synced incrementally from the miner's
  /// expansion delta on every release.
  FecPartitioner partition_;
  double mine_ns_ = 0;
};

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_STREAM_ENGINE_H_
