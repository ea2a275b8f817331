/// \file config.h
/// \brief Butterfly configuration: the (ε, δ) requirement pair, the scheme
/// variant, and the optimizer knobs.

#ifndef BUTTERFLY_CORE_CONFIG_H_
#define BUTTERFLY_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace butterfly {

/// Which bias-setting scheme sanitization uses (§V-C / §VI of the paper).
enum class ButterflyScheme {
  /// β = 0 everywhere, per-itemset independent noise; the minimum-ppr
  /// configuration with the lowest precision loss.
  kBasic,
  /// Per-FEC bias from the order-preserving dynamic program (Algorithm 1).
  kOrderPreserving,
  /// Per-FEC bias proportional to support (Algorithm 2).
  kRatioPreserving,
  /// β = λ·β_op + (1 − λ)·β_rp.
  kHybrid,
};

std::string SchemeName(ButterflyScheme scheme);

/// Which release-policy backend sanitizes the mining output before release
/// (see policy/release_policy.h). Butterfly — the paper's bias/noise scheme —
/// is the reference backend; the others are differentially private
/// alternatives answering the same per-window query, for the utility-vs-
/// breach comparison the paper could not run. The value is serialized as one
/// byte in the CONF checkpoint section, so the enumerators are pinned.
enum class ReleasePolicyKind : uint8_t {
  /// The paper's pipeline: FEC partition + bias DP + discrete-uniform noise
  /// + republish cache. Knobs: epsilon/delta/scheme/lambda.
  kButterfly = 0,
  /// PrivBasis-style private frequent-itemset release: a noisy top-B item
  /// basis, then Laplace supports for the basis-covered itemsets.
  kPrivBasis = 1,
  /// Continual-release frequency estimation: binary-tree (dyadic) mechanism
  /// over the sliding window's stream interval, node noise reused across
  /// windows so the per-element budget stays epsilon for the whole stream.
  kContinual = 2,
  /// Private heavy-hitter release: one-shot Gumbel top-k selection plus
  /// Laplace support estimates for the selected itemsets.
  kHeavyHitter = 3,
};

/// Canonical flag spelling of a policy kind: "butterfly", "privbasis",
/// "continual", "heavyhitter". The shared vocabulary of --policy= across
/// butterfly_cli, attack_cli, and the benches.
std::string ReleasePolicyName(ReleasePolicyKind kind);

/// Parses a --policy= value; nullopt on unknown names.
std::optional<ReleasePolicyKind> ParseReleasePolicyKind(std::string_view name);

/// Largest value a thread-count knob accepts (ButterflyConfig::threads and
/// FleetConfig::threads; 0 means hardware concurrency).
constexpr int64_t kMaxThreads = 1024;

/// Largest tenant count FleetConfig::Validate accepts. A fleet builds every
/// tenant's engine up front; at fleet-64's shape (H = 500, BMS-WebView-1,
/// C = 15) a tenant holds about 0.3 MiB, so the limit is about 1.2 GiB.
constexpr size_t kMaxTenants = 4096;

/// Largest ε that ButterflyConfig::Validate accepts. It keeps every maximum
/// adjustable bias βᵐ = sqrt(ε·t² − σ²) below 1000·t, so the bias grids and
/// the estimators t + β of any window's supports fit in int64.
constexpr double kMaxEpsilon = 1e6;

/// Largest OrderOptConfig::max_states that ButterflyConfig::Validate accepts.
/// Up to it, the per-FEC grids derived from the budget keep every step of
/// the order-preserving DP at or below this many states (32^4 or 16^5 at
/// most), so its flat tables stay bounded.
constexpr size_t kMaxOrderStates = size_t{1} << 20;

/// Knobs of the order-preserving dynamic program.
struct OrderOptConfig {
  /// DP window depth γ: each FEC's bias interacts with its γ predecessors.
  size_t gamma = 2;
  /// Budget on DP states; per-FEC candidate-grid size is derived from it.
  /// Validated to at most kMaxOrderStates.
  size_t max_states = 20000;
  /// Hard cap on bias candidates per FEC.
  size_t max_candidates = 21;
};

/// Full engine configuration.
struct ButterflyConfig {
  /// Precision requirement ε: upper bound on every frequent itemset's
  /// relative mean squared error (σ² + β²)/T² ≤ ε (since T ≥ C). Validated
  /// to (0, kMaxEpsilon].
  double epsilon = 0.016;
  /// Privacy requirement δ: lower bound on every vulnerable pattern's
  /// relative estimation error 2σ²/K² ≥ δ. Validated finite and positive,
  /// with 6δK² < 2^104 so the noise region length fits in int64.
  double delta = 0.4;

  Support min_support = 25;        ///< C
  Support vulnerable_support = 5;  ///< K

  ButterflyScheme scheme = ButterflyScheme::kBasic;
  /// Hybrid blend weight λ ∈ [0, 1]; 1 = pure order-preserving, 0 = pure
  /// ratio-preserving. Only read when scheme == kHybrid.
  double lambda = 0.4;

  OrderOptConfig order_opt;

  /// Re-publish the cached sanitized support while an itemset's true support
  /// is unchanged across windows (defense against averaging, Prior
  /// Knowledge 2). On by default.
  bool republish_cache = true;

  /// Store the miner's window index as hybrid array/bitmap containers
  /// instead of dense per-item bitmaps (see stream/window_bitmap_index.h).
  /// Mined output and release logs are bit-identical either way; hybrid
  /// collapses index memory on large sparse alphabets. Either store needs
  /// the window capacity H <= kMaxWindow (65536), which
  /// StreamPrivacyEngine::Create and FleetConfig::Validate check.
  bool hybrid_index = false;

  /// Which release-policy backend the engine publishes through. Butterfly
  /// reads the (epsilon, delta, scheme, ...) knobs above; the DP backends
  /// read policy_epsilon / policy_top_k instead. Checkpointed (one byte in
  /// the CONF section) and bit-compared on restore.
  ReleasePolicyKind policy = ReleasePolicyKind::kButterfly;

  /// Per-window differential-privacy budget of the DP backends (ignored by
  /// Butterfly, whose budget is the epsilon/delta pair). The continual
  /// backend's budget is per stream element over the whole stream — see
  /// DESIGN.md §15 for each backend's accounting.
  double policy_epsilon = 1.0;

  /// Selection width of the selective DP backends: the PrivBasis item-basis
  /// size B and the heavy-hitter release size k. Ignored by Butterfly and
  /// the continual estimator.
  size_t policy_top_k = 32;

  uint64_t seed = 0x42u;

  /// Read by no release stage: a release runs entirely on the calling
  /// thread, and its content is bit-identical for every value. Checkpoints
  /// do not carry it, so a snapshot restores into an engine with any value.
  /// The field stays only because the end-to-end benchmark assigns it.
  /// Validated to [0, kMaxThreads].
  int64_t threads = 1;

  /// The precision-privacy ratio ε/δ.
  double ppr() const { return epsilon / delta; }

  /// The minimum feasible ppr K²/(2C²) for these thresholds.
  double MinPpr() const {
    double k = static_cast<double>(vulnerable_support);
    double c = static_cast<double>(min_support);
    return (k * k) / (2.0 * c * c);
  }

  /// Checks parameter sanity and the ε/δ ≥ K²/(2C²) compatibility condition
  /// (Inequations 1 and 2 admit a common σ² only above the minimum ppr).
  Status Validate() const;
};

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_CONFIG_H_
