/// \file release_policy.h
/// \brief ReleasePolicy: the pluggable sanitization backend of the release
/// path. StreamPrivacyEngine mines each window and hands the raw
/// frequent-itemset output to its policy, which decides what gets published
/// and under what perturbation.
///
/// Backends (see MakeReleasePolicy / ReleasePolicyKind):
///   butterfly    the paper's bias/noise pipeline (reference backend)
///   privbasis    PrivBasis-style private frequent-itemset release
///   continual    binary-tree continual-release frequency estimator
///   heavyhitter  private top-k heavy-hitter release
///
/// Contract every backend honors:
///   * Determinism: the release is a pure function of (config seed, release
///     history, input). All randomness is drawn from counter-based streams
///     (common/rng.h CounterRng) keyed on (seed, epoch/identity), never from
///     sequential generators — so releases are bit-identical at any thread
///     count and across checkpoint/restore.
///   * Sealed outputs: every returned SanitizedOutput is Seal()ed (sorted by
///     itemset), the order the release log and the adversary tooling assume.
///   * Checkpointing: Checkpoint/Restore round-trip all cross-release state
///     (epoch counters, caches, budget accounting). The policy *identity*
///     is serialized by the owner as a byte in the CONF section; a snapshot
///     taken under one policy does not restore into another.

#ifndef BUTTERFLY_POLICY_RELEASE_POLICY_H_
#define BUTTERFLY_POLICY_RELEASE_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/config.h"
#include "core/fec.h"
#include "core/sanitized_output.h"
#include "mining/mining_result.h"

namespace butterfly {

namespace persist {
class CheckpointWriter;
class CheckpointReader;
}  // namespace persist

/// Everything a policy may know about the window being released, beyond the
/// mining output itself.
struct WindowContext {
  /// The (public) window size H.
  Support window_size = 0;
  /// Absolute stream position of the window's end: the window covers stream
  /// records [stream_position - window_size, stream_position). The continual
  /// backend keys its dyadic noise nodes on this interval.
  uint64_t stream_position = 0;
  /// Optional prebuilt FEC partition of the output (support-ascending,
  /// partitioning it exactly). Null means the policy partitions or iterates
  /// the MiningOutput itself; non-null is the incremental fast path.
  const FecView* fecs = nullptr;
};

/// Per-release statistics a policy reports back. The Butterfly backend fills
/// the stage timings and cache fields; the DP backends fill the epsilon
/// accounting and leave the Butterfly-specific fields at their defaults.
struct PolicyStats {
  double partition_ns = 0;  ///< input partition / profile construction
  double bias_ns = 0;       ///< bias reuse/memo lookup + DP on a miss
  double noise_ns = 0;      ///< per-itemset perturbation
  double emit_ns = 0;       ///< release assembly + seal

  bool bias_cache_hit = false;  ///< previous-window bias reuse fired
  bool bias_memo_hit = false;   ///< cross-window DP memo fired
  uint64_t bias_memo_hits = 0;
  uint64_t bias_memo_misses = 0;

  /// The epoch this release was drawn under (pre-increment).
  uint64_t epoch = 0;

  /// Differential-privacy budget this release consumed (0 for Butterfly,
  /// whose guarantee is the (epsilon, delta) interval model, not DP).
  double epsilon_spent = 0;
  /// The backend's cumulative per-element privacy cost so far. Additive
  /// across windows for the one-shot backends (naive composition); constant
  /// at policy_epsilon for the continual estimator, whose dyadic node noise
  /// is reused across windows. See DESIGN.md §15.
  double epsilon_cumulative = 0;
};

/// Abstract release backend. Implementations live in src/policy/ and are
/// constructed through MakeReleasePolicy; StreamPrivacyEngine owns exactly
/// one and routes every release through it.
class ReleasePolicy {
 public:
  virtual ~ReleasePolicy() = default;

  ReleasePolicy(const ReleasePolicy&) = delete;
  ReleasePolicy& operator=(const ReleasePolicy&) = delete;

  /// Which backend this is; matches the config byte it was built from.
  virtual ReleasePolicyKind kind() const = 0;

  /// Sanitizes one window's raw output for publication. Consumes one epoch.
  /// \p ctx.fecs may carry a prebuilt partition of \p frequent; \p stats may
  /// be null.
  virtual SanitizedOutput Release(const MiningOutput& frequent,
                                  const WindowContext& ctx,
                                  PolicyStats* stats) = 0;

  /// The epoch the NEXT release will be drawn under (= releases emitted so
  /// far). Essential checkpoint state for every backend.
  virtual uint64_t epoch() const = 0;

  /// Serializes all cross-release state as one tagged section.
  virtual void Checkpoint(persist::CheckpointWriter* writer) const = 0;

  /// Restores from the matching section of a snapshot taken under the same
  /// policy kind and config.
  virtual Status Restore(persist::CheckpointReader* reader) = 0;

 protected:
  ReleasePolicy() = default;
};

/// Builds the backend \p config.policy names, configured from \p config.
/// The config must already be validated.
std::unique_ptr<ReleasePolicy> MakeReleasePolicy(const ButterflyConfig& config);

}  // namespace butterfly

#endif  // BUTTERFLY_POLICY_RELEASE_POLICY_H_
