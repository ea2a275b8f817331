/// \file butterfly.h
/// \brief ButterflyEngine: the paper's output-privacy countermeasure.
///
/// Feed it the raw frequent-itemset output of each window; it returns the
/// sanitized release. The engine
///   1. partitions the itemsets into frequency equivalence classes,
///   2. sets per-FEC biases by the configured scheme (basic / order- /
///      ratio-preserving / hybrid) within each FEC's maximum adjustable
///      bias, honoring the (ε, δ) requirement,
///   3. perturbs supports with discrete-uniform noise (shared per FEC for
///      the optimized schemes, independent per itemset for basic),
///   4. pins sanitized values across windows while true supports are
///      unchanged (republish cache, Prior Knowledge 2).
///
/// The bias-setting stage is cached at two levels: the previous window's
/// profiles (with optional drift tolerance, ButterflyConfig::
/// bias_cache_tolerance) and a cross-window memo keyed on the exact FEC
/// support-profile vector (profiles repeat heavily under sliding windows),
/// so repeated profiles skip the Algorithm 1 DP entirely while producing
/// bit-identical biases.

#ifndef BUTTERFLY_CORE_BUTTERFLY_H_
#define BUTTERFLY_CORE_BUTTERFLY_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/bias_setting.h"
#include "core/config.h"
#include "core/fec.h"
#include "core/noise.h"
#include "core/republish_cache.h"
#include "core/sanitized_output.h"
#include "mining/mining_result.h"

namespace butterfly {

namespace persist {
class CheckpointWriter;
class CheckpointReader;
}  // namespace persist

/// Wall-clock breakdown of the last Sanitize call, in nanoseconds per stage.
/// Exposed for the overhead benchmarks (fig8_overhead emits these into
/// BENCH_overhead.json) and for tests pinning the cache behavior.
struct SanitizeStageTimes {
  double partition_ns = 0;  ///< FEC partition + profile construction
  double bias_ns = 0;       ///< bias reuse/memo lookup + DP on a miss
  /// The one pass over the FECs: republish lookup, keyed noise draw,
  /// pinning and release assembly per itemset.
  double noise_ns = 0;
  double emit_ns = 0;  ///< republish-cache epoch advance + release seal
  bool bias_cache_hit = false;  ///< previous-window bias reuse fired
  bool bias_memo_hit = false;   ///< cross-window DP memo fired
};

class ButterflyEngine {
 public:
  /// Validates \p config and builds an engine. Prefer this over the ctor.
  static Result<ButterflyEngine> Create(const ButterflyConfig& config);

  /// Builds an engine without validation (asserts on invalid input in debug
  /// builds); use Create for untrusted configuration.
  explicit ButterflyEngine(const ButterflyConfig& config);

  /// Sanitizes one window's frequent-itemset output. \p window_size is the
  /// (public) window size H, carried into the release for the adversary
  /// model and the metrics.
  ///
  /// \p fecs optionally supplies a prebuilt FEC partition of \p frequent
  /// (strictly ascending by support, partitioning it exactly) — the fast
  /// path StreamPrivacyEngine maintains incrementally across window slides.
  /// With fecs == nullptr the engine partitions from scratch. Both paths
  /// emit the bit-identical release; the prebuilt one only skips work.
  ///
  /// Noise is drawn from counter-based streams keyed on (engine seed,
  /// release epoch, itemset / FEC identity), so the release is a pure
  /// function of the engine's seed, its call history length, and the input —
  /// independent of FEC iteration order and of `config.threads`. The whole
  /// call runs on the calling thread.
  SanitizedOutput Sanitize(const MiningOutput& frequent, Support window_size,
                           const FecView* fecs = nullptr);

  /// The per-FEC biases the configured scheme would assign to \p frequent —
  /// exposed for tests and for the bias-setting benchmarks.
  std::vector<double> ComputeBiases(const std::vector<FecProfile>& profiles);

  const ButterflyConfig& config() const { return config_; }
  const NoiseModel& noise() const { return noise_; }

  /// The epoch the NEXT Sanitize call will release under. Each call consumes
  /// one epoch; the (seed, epoch) pair keys every noise stream, so this
  /// counter is essential checkpoint state — a restored engine must continue
  /// the sequence, not restart it.
  uint64_t epoch() const { return epoch_; }

  /// True iff the last Sanitize call reused cached bias settings (the FEC
  /// structure was unchanged, or the DP memo held the profile vector).
  bool last_biases_were_cached() const { return last_biases_were_cached_; }

  /// Stage breakdown of the last Sanitize call.
  const SanitizeStageTimes& last_stage_times() const {
    return last_stage_times_;
  }

  /// Cumulative cross-window DP-memo hits / misses (misses count only
  /// windows that ran the optimizer, not previous-window cache hits).
  uint64_t bias_memo_hits() const { return bias_memo_hits_; }
  uint64_t bias_memo_misses() const { return bias_memo_misses_; }

  /// Drops every pinned sanitized value so the next Sanitize draws fresh
  /// noise. Intended for audit-driven redraw: bounded noise admits unlucky
  /// draws whose constraint system provably pins a vulnerable pattern
  /// (see metrics/auditor.h); the mitigation is to discard the draw and
  /// re-sanitize. Use sparingly — the adversary knowing that rejected
  /// configurations are impossible is itself a (second-order) leak.
  void ForgetPinnedValues() { cache_.Clear(); }

  /// Serializes the sanitizer's essential cross-release state: the epoch
  /// counter, the republish cache, and the previous window's bias settings
  /// (essential under a nonzero bias_cache_tolerance, where the reuse path
  /// may legitimately diverge from a fresh optimization). The DP memo is
  /// reconstructible — memo hits are bit-identical to recomputation — and is
  /// dropped; so are the stage timings and memo hit counters. The config is
  /// serialized by the owner (StreamPrivacyEngine), not here.
  void Checkpoint(persist::CheckpointWriter* writer) const;

  /// Restores from a checkpoint section into an engine built with the same
  /// config. Resets the DP memo and diagnostics; returns Status errors on
  /// corrupted sections.
  Status Restore(persist::CheckpointReader* reader);

 private:
  /// Sanitize's body over a FEC partition view: the release is a pure
  /// function of the partition. \p total_itemsets must equal the total
  /// member count of \p fecs.
  SanitizedOutput SanitizeView(const FecView& fecs, size_t total_itemsets,
                               Support window_size);

  /// Attempts to satisfy this window's bias setting from the cached one
  /// (incremental mode); see ButterflyConfig::bias_cache_tolerance.
  bool TryReuseBiases(const std::vector<FecProfile>& profiles,
                      std::vector<double>* biases);

  /// Cross-window DP memo (exact profile-vector match). Lookup returns true
  /// and fills \p biases on a hit; Insert stores a fresh optimization,
  /// evicting the least recently used entry past the configured capacity.
  bool MemoLookup(const std::vector<FecProfile>& profiles,
                  std::vector<double>* biases);
  void MemoInsert(const std::vector<FecProfile>& profiles,
                  const std::vector<double>& biases);
  bool MemoEnabled() const;

  ButterflyConfig config_;
  NoiseModel noise_;
  RepublishCache cache_;
  /// Release counter: the per-itemset noise streams are keyed on it, so each
  /// Sanitize call draws fresh, mutually independent noise.
  uint64_t epoch_ = 0;

  // Incremental mode: the previous window's FEC profiles and their biases.
  std::vector<FecProfile> cached_profiles_;
  std::vector<double> cached_biases_;
  bool last_biases_were_cached_ = false;

  // Cross-window DP memo: profile-vector hash -> entries (collision chain).
  struct MemoEntry {
    std::vector<FecProfile> profiles;
    std::vector<double> biases;
    uint64_t last_used = 0;
  };
  std::unordered_map<uint64_t, std::vector<MemoEntry>> bias_memo_;
  size_t bias_memo_size_ = 0;
  uint64_t bias_memo_clock_ = 0;
  uint64_t bias_memo_hits_ = 0;
  uint64_t bias_memo_misses_ = 0;

  SanitizeStageTimes last_stage_times_;

  // Preallocated hot-path scratch, reused across releases.
  BiasDpScratch dp_scratch_;
  std::vector<FecProfile> profiles_scratch_;
};

/// Equality of FEC profiles, the cache key of the incremental mode.
inline bool operator==(const FecProfile& a, const FecProfile& b) {
  return a.support == b.support && a.member_count == b.member_count &&
         a.max_bias == b.max_bias;
}

/// Convenience: FecProfiles (support, member count, max adjustable bias)
/// for a mining output under the given requirement.
std::vector<FecProfile> BuildFecProfiles(const std::vector<Fec>& fecs,
                                         double epsilon,
                                         double noise_variance);

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_BUTTERFLY_H_
