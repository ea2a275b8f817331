/// \file privacy_frontier.cc
/// \brief The utility-vs-breach frontier across release backends: replays
/// one window trace through every ReleasePolicy at several privacy-knob
/// settings and measures, per point, the paper's utility metrics (avg_pred,
/// ropp, rrpp), the privacy guarantee against the estimating adversary
/// (avg_prig), and the *breach rate* — the fraction of the ground-truth
/// hard vulnerable patterns that the naive inclusion-exclusion adversary
/// still recovers exactly through the sanitized release.
///
/// Butterfly sweeps δ (ε tied by the paper's precision-privacy ratio); the
/// DP backends sweep their ε budget. One JSON artifact (BENCH_privacy.json)
/// carries the frontier so the README plot and future PRs can diff it.
///
/// Usage:
///   privacy_frontier [--smoke] [--json=BENCH_privacy.json]
///                    [--policy=butterfly|privbasis|continual|heavyhitter]

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness.h"
#include "metrics/privacy_metrics.h"
#include "metrics/utility_metrics.h"
#include "policy/release_policy.h"

namespace butterfly::bench {
namespace {

constexpr Support kVulnerable = 5;
constexpr double kPpr = 0.04;  // Butterfly's fixed ε/δ (paper Fig. 4/7)

/// One measured frontier point.
struct FrontierRow {
  std::string backend;
  std::string knob;    ///< "delta" (butterfly) or "epsilon" (DP)
  double knob_value = 0;
  size_t windows = 0;
  double released_itemsets = 0;  ///< avg per window
  double avg_pred = 0;
  double ropp = 0;
  double rrpp = 0;
  double avg_prig = 0;
  double breach_rate = 0;  ///< exact naive re-identifications / |Phv|
  double epsilon_cumulative = 0;  ///< backend budget after the last window
};

/// The naive adversary's exact hits: claims from the sanitized release that
/// reproduce a ground-truth hard vulnerable pattern with its true support.
size_t CountExactBreaches(const std::vector<InferredPattern>& ground_truth,
                          const SanitizedOutput& release, Support window) {
  MiningOutput observed(release.min_support());
  for (const SanitizedItemset& item : release.items()) {
    observed.Add(item.itemset, item.sanitized_support);
  }
  observed.Seal();
  AttackConfig attack;
  attack.vulnerable_support = kVulnerable;
  // Derivation-only adversary on the sanitized side: the bound-tightening
  // cascade treats noisy supports as exact, and on an inconsistent lattice
  // (large-noise DP backends) it learns garbage at cascade scale — minutes
  // per window — while never adding an *exact* recovery through noise
  // (butterfly rates are identical either way).
  attack.use_estimation = false;
  const std::vector<InferredPattern> claims =
      FindIntraWindowBreaches(observed, window, attack);
  size_t exact = 0;
  for (const InferredPattern& truth : ground_truth) {
    for (const InferredPattern& claim : claims) {
      if (claim.pattern == truth.pattern &&
          claim.inferred_support == truth.inferred_support) {
        ++exact;
        break;
      }
    }
  }
  return exact;
}

FrontierRow MeasurePoint(const WindowTrace& trace,
                         const std::vector<std::vector<InferredPattern>>&
                             breaches,
                         const ButterflyConfig& config,
                         const std::string& knob, double knob_value) {
  FrontierRow row;
  row.backend = ReleasePolicyName(config.policy);
  row.knob = knob;
  row.knob_value = knob_value;
  row.windows = trace.raw.size();

  std::unique_ptr<ReleasePolicy> policy = MakeReleasePolicy(config);
  const Support window = static_cast<Support>(trace.config.window);
  size_t ground_truth_total = 0, exact_breaches = 0, prig_windows = 0;
  for (size_t w = 0; w < trace.raw.size(); ++w) {
    WindowContext ctx;
    ctx.window_size = window;
    ctx.stream_position =
        trace.config.window + w * trace.config.stride;
    ReleaseStats stats;
    const SanitizedOutput release =
        policy->Release(trace.raw[w], ctx, &stats);
    row.released_itemsets += static_cast<double>(release.size());
    row.avg_pred += AvgPred(trace.raw[w], release);
    row.ropp += Ropp(trace.raw[w], release);
    row.rrpp += Rrpp(trace.raw[w], release);
    const PrivacyEvaluation eval = EvaluatePrivacy(breaches[w], release);
    if (eval.evaluated_patterns > 0) {
      row.avg_prig += eval.avg_prig;
      ++prig_windows;
    }
    ground_truth_total += breaches[w].size();
    exact_breaches += CountExactBreaches(breaches[w], release, window);
    row.epsilon_cumulative = stats.epsilon_cumulative;
  }
  const double n = static_cast<double>(trace.raw.size());
  row.released_itemsets /= n;
  row.avg_pred /= n;
  row.ropp /= n;
  row.rrpp /= n;
  row.avg_prig =
      prig_windows ? row.avg_prig / static_cast<double>(prig_windows) : 0;
  row.breach_rate = ground_truth_total
                        ? static_cast<double>(exact_breaches) /
                              static_cast<double>(ground_truth_total)
                        : 0;
  return row;
}

bool WritePrivacyJson(const std::string& path,
                      const std::vector<FrontierRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const FrontierRow& r = rows[i];
    std::fprintf(
        f,
        "  {\"backend\": \"%s\", \"knob\": \"%s\", \"knob_value\": %.4f, "
        "\"windows\": %zu, \"released_itemsets\": %.2f, "
        "\"avg_pred\": %.6f, \"ropp\": %.6f, \"rrpp\": %.6f, "
        "\"avg_prig\": %.6f, \"breach_rate\": %.6f, "
        "\"epsilon_cumulative\": %.4f}%s\n",
        r.backend.c_str(), r.knob.c_str(), r.knob_value, r.windows,
        r.released_itemsets, r.avg_pred, r.ropp, r.rrpp, r.avg_prig,
        r.breach_rate, r.epsilon_cumulative, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "BENCH_privacy.json");
  const std::string only = flags.GetString("policy", "");
  if (!flags.ok()) {
    std::fprintf(stderr, "privacy_frontier: %s\n",
                 flags.errors().front().c_str());
    return 1;
  }
  if (!only.empty() && !ParseReleasePolicyKind(only)) {
    std::fprintf(stderr, "privacy_frontier: unknown policy '%s'\n",
                 only.c_str());
    return 1;
  }

  TraceConfig trace_config;
  trace_config.profile = DatasetProfile::kBmsWebView1;
  trace_config.window = 2000;
  trace_config.min_support = 25;
  trace_config.reports = smoke ? 6 : 40;
  trace_config.stride = 100;

  std::printf("privacy_frontier: %s, H=%zu C=%ld K=%ld, %zu windows%s\n",
              ProfileName(trace_config.profile).c_str(), trace_config.window,
              (long)trace_config.min_support, (long)kVulnerable,
              trace_config.reports, smoke ? " (smoke)" : "");
  WindowTrace trace = CollectTrace(trace_config);
  std::vector<std::vector<InferredPattern>> breaches =
      CollectBreaches(trace, kVulnerable);
  size_t total_breaches = 0;
  for (const auto& b : breaches) total_breaches += b.size();
  std::printf("ground truth: %zu hard vulnerable patterns across %zu "
              "windows\n\n",
              total_breaches, trace.raw.size());

  std::vector<FrontierRow> rows;
  const auto wanted = [&only](ReleasePolicyKind kind) {
    return only.empty() || ParseReleasePolicyKind(only) == kind;
  };

  // Butterfly: the paper's hybrid variant, δ sweep with ε tied by the ppr.
  if (wanted(ReleasePolicyKind::kButterfly)) {
    const SchemeVariant hybrid = PaperVariants()[2];  // "Opt l=0.4"
    for (double delta : {0.2, 0.4, 0.8}) {
      ButterflyConfig config =
          MakeConfig(trace_config, hybrid, kPpr * delta, delta);
      rows.push_back(
          MeasurePoint(trace, breaches, config, "delta", delta));
    }
  }

  // DP backends: ε sweep at a shared top-k budget.
  for (ReleasePolicyKind kind :
       {ReleasePolicyKind::kPrivBasis, ReleasePolicyKind::kContinual,
        ReleasePolicyKind::kHeavyHitter}) {
    if (!wanted(kind)) continue;
    for (double epsilon : {0.5, 1.0, 2.0}) {
      ButterflyConfig config =
          MakeConfig(trace_config, PaperVariants()[2], kPpr * 0.4, 0.4);
      config.policy = kind;
      config.policy_epsilon = epsilon;
      config.policy_top_k = 32;
      rows.push_back(
          MeasurePoint(trace, breaches, config, "epsilon", epsilon));
    }
  }

  PrintTableHeader(
      "Utility vs breach frontier (naive adversary, K=" +
          std::to_string(kVulnerable) + ")",
      {"backend", "knob", "value", "released", "avg_pred", "ropp", "rrpp",
       "avg_prig", "breach_rate", "eps_cum"});
  for (const FrontierRow& r : rows) {
    PrintTableRow({r.backend, r.knob, FormatDouble(r.knob_value, 2),
                   FormatDouble(r.released_itemsets, 1),
                   FormatDouble(r.avg_pred, 4), FormatDouble(r.ropp, 3),
                   FormatDouble(r.rrpp, 3), FormatDouble(r.avg_prig, 3),
                   FormatDouble(r.breach_rate, 4),
                   FormatDouble(r.epsilon_cumulative, 2)});
  }

  if (!WritePrivacyJson(json_path, rows)) {
    std::fprintf(stderr, "privacy_frontier: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %zu frontier points to %s\n", rows.size(),
              json_path.c_str());

  // Smoke-mode sanity floor: the whole point of every backend is that the
  // naive adversary stops recovering exact supports. A breach rate at 1.0
  // for any point means sanitization is a no-op — fail loudly.
  for (const FrontierRow& r : rows) {
    if (r.breach_rate >= 0.999 && total_breaches > 0) {
      std::fprintf(stderr,
                   "privacy_frontier: FAIL %s at %s=%.2f leaks every "
                   "ground-truth pattern\n",
                   r.backend.c_str(), r.knob.c_str(), r.knob_value);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace butterfly::bench

int main(int argc, char** argv) {
  return butterfly::bench::Run(argc, argv);
}
