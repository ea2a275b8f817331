/// \file butterfly.h
/// \brief ButterflyEngine: the paper's output-privacy countermeasure.
///
/// Feed it the raw frequent-itemset output of each window; it returns the
/// sanitized release. The engine
///   1. counts the itemsets' frequency equivalence classes,
///   2. sets per-FEC biases by the configured scheme (basic / order- /
///      ratio-preserving / hybrid) within each FEC's maximum adjustable
///      bias, honoring the (ε, δ) requirement,
///   3. perturbs supports with discrete-uniform noise (shared per FEC for
///      the optimized schemes, independent per itemset for basic),
///   4. pins sanitized values across windows while true supports are
///      unchanged (republish cache, Prior Knowledge 2).
///
/// A release's biases are a pure function of its own window's FEC profiles.
/// Only the epoch counter and the republish cache cross windows.

#ifndef BUTTERFLY_CORE_BUTTERFLY_H_
#define BUTTERFLY_CORE_BUTTERFLY_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/timing.h"
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
  /// Counts the FECs of \p frequent, sets their biases, then perturbs the
  /// itemsets in one pass in their stored order, finding each one's FEC in a
  /// support-indexed table that spans the FECs' support range (at most H
  /// entries for a window's output). Noise is drawn from counter-based streams
  /// keyed on (engine seed, release epoch, itemset / FEC support), and each
  /// itemset touches only its own republish-cache entry, so the release is a
  /// pure function of the engine's seed, its call history length, and the
  /// input — independent of the input's order and of `config.threads`. The
  /// release is sealed; it sorts only when \p frequent was not. The whole
  /// call runs on the calling thread.
  ///
  /// With \p spans non-null the call adds its partition, bias, noise and
  /// emit time to it.
  SanitizedOutput Sanitize(const MiningOutput& frequent, Support window_size,
                           StageSpans* spans = nullptr);

  const ButterflyConfig& config() const { return config_; }
  const NoiseModel& noise() const { return noise_; }

  /// The epoch the NEXT Sanitize call will release under. Each call consumes
  /// one epoch; the (seed, epoch) pair keys every noise stream, so this
  /// counter is essential checkpoint state — a restored engine must continue
  /// the sequence, not restart it.
  uint64_t epoch() const { return epoch_; }

  /// Drops every pinned sanitized value so the next Sanitize draws fresh
  /// noise. Intended for audit-driven redraw: bounded noise admits unlucky
  /// draws whose constraint system provably pins a vulnerable pattern
  /// (see metrics/auditor.h); the mitigation is to discard the draw and
  /// re-sanitize. Use sparingly — the adversary knowing that rejected
  /// configurations are impossible is itself a (second-order) leak.
  void ForgetPinnedValues() { cache_.Clear(); }

  /// Serializes the sanitizer's cross-release state: the epoch counter and
  /// the republish cache. The config is serialized by the owner
  /// (StreamPrivacyEngine), not here.
  void Checkpoint(persist::CheckpointWriter* writer) const;

  /// Restores from a checkpoint section into an engine built with the same
  /// config; returns Status errors on corrupted sections.
  Status Restore(persist::CheckpointReader* reader);

 private:
  /// The per-FEC biases the configured scheme assigns to \p profiles.
  std::vector<double> ComputeBiases(const std::vector<FecProfile>& profiles);

  ButterflyConfig config_;
  NoiseModel noise_;
  RepublishCache cache_;
  /// Release counter: the per-itemset noise streams are keyed on it, so each
  /// Sanitize call draws fresh, mutually independent noise.
  uint64_t epoch_ = 0;

  // Preallocated hot-path scratch, reused across releases.
  std::vector<FecProfile> profiles_scratch_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_BUTTERFLY_H_
