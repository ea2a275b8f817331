/// \file butterfly_cli.cpp
/// \brief A command-line driver for the full pipeline: stream a dataset
/// (FIMI file or calibrated profile) through Moment + Butterfly, write the
/// sanitized releases to a log, and report utility/privacy metrics.
///
/// Usage:
///   butterfly_cli [--data=path.dat | --profile=webview1|pos]
///                 [--window=2000] [--min-support=25] [--vulnerable=5]
///                 [--epsilon=0.016] [--delta=0.4]
///                 [--scheme=basic|order|ratio|hybrid] [--lambda=0.4]
///                 [--stride=100] [--reports=10] [--records=N]
///                 [--out=releases.log] [--attack] [--seed=66]
///                 [--checkpoint=path.ckpt] [--checkpoint-every=N]
///                 [--restore=path.ckpt] [--threads=N]
///                 [--hybrid-index] [--tenants=N]
///                 [--policy=butterfly|privbasis|continual|heavyhitter]
///                 [--policy-epsilon=1.0] [--policy-top-k=32]
///                 [--tenant-policies=butterfly,privbasis,...]
///
/// --policy selects the release backend (default butterfly, the paper's
/// pipeline). The DP backends take their per-window budget from
/// --policy-epsilon and (privbasis/heavyhitter) their size bound from
/// --policy-top-k. --attack and --audit interpret the release through
/// Butterfly's noise/bias model and therefore require --policy=butterfly.
/// In fleet mode --tenant-policies assigns backends round-robin: tenant t
/// runs the (t mod N)-th entry of the comma-separated list.
///
/// --tenants=N (N > 1) switches to multi-tenant fleet mode: N engines with
/// tenant-derived seeds run behind the EngineFleet scheduler, each mining
/// its own stream (per-tenant data seeds; with --data every tenant replays
/// the same file). --threads sizes the fleet pump only (0 = auto): a single
/// engine releases on the calling thread whatever its value.
/// --out receives every tenant's releases (labels carry the tenant id),
/// --checkpoint names a *directory* that round-robin snapshots rotate
/// through (one tenant per release round), and --restore reloads whichever
/// tenant snapshots exist in that directory.
/// Per-release analysis flags (--attack, --audit) are single-engine only.
///
/// --hybrid-index keeps the window index's per-item rows in compressed
/// array/bitmap/run containers (DESIGN.md §13) instead of dense bitmaps —
/// same releases bit-for-bit, a fraction of the memory on large alphabets.
/// The choice is recorded in checkpoints; a --restore keeps the snapshot's
/// store mode.
///
/// --attack additionally replays the intra-window adversary against both the
/// raw and the sanitized output of every reported window.
///
/// --checkpoint snapshots the engine to the given path after every
/// --checkpoint-every reported windows (atomic rename; a crash mid-write
/// keeps the previous snapshot). --restore rebuilds the engine from such a
/// snapshot, skips the stream records it had already consumed, recovers a
/// torn --out log, and continues emitting the exact releases the
/// uninterrupted run would have: window/config flags are taken from the
/// snapshot, not the command line.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <utility>

#include "common/flags.h"
#include "core/release_log.h"
#include "core/stream_engine.h"
#include "metrics/timing.h"
#include "persist/engine_checkpoint.h"
#include "datagen/fimi_io.h"
#include "datagen/profiles.h"
#include "inference/breach_finder.h"
#include "metrics/auditor.h"
#include "metrics/privacy_metrics.h"
#include "metrics/sanitized_attack.h"
#include "metrics/utility_metrics.h"
#include "service/engine_fleet.h"

using namespace butterfly;

namespace {

std::optional<ButterflyScheme> ParseScheme(const std::string& name) {
  if (name == "basic") return ButterflyScheme::kBasic;
  if (name == "order") return ButterflyScheme::kOrderPreserving;
  if (name == "ratio") return ButterflyScheme::kRatioPreserving;
  if (name == "hybrid") return ButterflyScheme::kHybrid;
  return std::nullopt;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "butterfly_cli: %s\n", message.c_str());
  return 1;
}

/// Parses a comma-separated --tenant-policies list; nullopt on a bad name.
std::optional<std::vector<ReleasePolicyKind>> ParseTenantPolicies(
    const std::string& list) {
  std::vector<ReleasePolicyKind> kinds;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    std::optional<ReleasePolicyKind> kind =
        ParseReleasePolicyKind(list.substr(start, comma - start));
    if (!kind) return std::nullopt;
    kinds.push_back(*kind);
    start = comma + 1;
  }
  return kinds;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  const std::string data_path = flags.GetString("data", "");
  const std::string profile_name = flags.GetString("profile", "webview1");
  size_t window = flags.GetSize("window", 2000);
  const size_t stride = flags.GetSize("stride", 100);
  const size_t reports = flags.GetSize("reports", 10);
  const size_t records = flags.GetSize("records", 0);
  const std::string out_path = flags.GetString("out", "");
  const bool run_attack = flags.GetBool("attack", false);
  const bool run_audit = flags.GetBool("audit", false);
  const std::string save_data_path = flags.GetString("save-data", "");
  const std::string checkpoint_path = flags.GetString("checkpoint", "");
  const size_t checkpoint_every = flags.GetSize("checkpoint-every", 1);
  const std::string restore_path = flags.GetString("restore", "");
  const size_t tenants = flags.GetSize("tenants", 1);

  ButterflyConfig config;
  config.min_support = flags.GetInt("min-support", 25);
  config.vulnerable_support = flags.GetInt("vulnerable", 5);
  config.epsilon = flags.GetDouble("epsilon", 0.016);
  config.delta = flags.GetDouble("delta", 0.4);
  config.lambda = flags.GetDouble("lambda", 0.4);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 66));
  config.threads = flags.GetInt("threads", 1);  // 0 = auto-detect
  config.hybrid_index = flags.GetBool("hybrid-index", false);
  std::string scheme_name = flags.GetString("scheme", "hybrid");
  const std::string policy_name = flags.GetString("policy", "butterfly");
  config.policy_epsilon = flags.GetDouble("policy-epsilon", 1.0);
  config.policy_top_k = flags.GetSize("policy-top-k", 32);
  const std::string tenant_policy_list = flags.GetString("tenant-policies", "");

  if (!flags.ok()) return Fail(flags.errors().front());
  std::vector<std::string> unread = flags.UnreadFlags();
  if (!unread.empty()) return Fail("unknown flag --" + unread.front());
  if (stride == 0) return Fail("--stride must be positive");

  std::optional<ButterflyScheme> scheme = ParseScheme(scheme_name);
  if (!scheme) return Fail("unknown scheme '" + scheme_name + "'");
  config.scheme = *scheme;

  std::optional<ReleasePolicyKind> policy = ParseReleasePolicyKind(policy_name);
  if (!policy) return Fail("unknown policy '" + policy_name + "'");
  config.policy = *policy;
  if ((run_attack || run_audit) &&
      config.policy != ReleasePolicyKind::kButterfly) {
    return Fail(
        "--attack/--audit interpret releases through Butterfly's noise/bias "
        "model; they require --policy=butterfly");
  }
  if (!tenant_policy_list.empty() && tenants <= 1) {
    return Fail("--tenant-policies requires fleet mode (--tenants=N, N > 1)");
  }

  if (tenants > 1) {
    if (run_attack || run_audit) {
      return Fail(
          "--attack/--audit analyze one engine's releases; "
          "drop them or --tenants");
    }
    FleetConfig fleet_config;
    fleet_config.tenants = tenants;
    fleet_config.threads = config.threads;
    fleet_config.window = window;
    fleet_config.stride = stride;
    fleet_config.engine = config;
    if (!tenant_policy_list.empty()) {
      std::optional<std::vector<ReleasePolicyKind>> kinds =
          ParseTenantPolicies(tenant_policy_list);
      if (!kinds) {
        return Fail("bad --tenant-policies entry in '" + tenant_policy_list +
                    "'");
      }
      fleet_config.tenant_policies = std::move(*kinds);
    }

    // Per-tenant streams: distinct data seeds from a profile, or every
    // tenant replaying the same FIMI file.
    const size_t n = records ? records : window + stride * reports;
    std::vector<std::vector<Transaction>> streams(tenants);
    for (size_t t = 0; t < tenants; ++t) {
      Result<std::vector<Transaction>> data = [&]() {
        if (!data_path.empty()) return LoadFimiFile(data_path);
        const uint64_t data_seed = 7 + 1000 * t;
        if (profile_name == "webview1") {
          return GenerateProfile(DatasetProfile::kBmsWebView1, n, data_seed);
        }
        if (profile_name == "pos") {
          return GenerateProfile(DatasetProfile::kBmsPos, n, data_seed);
        }
        return Result<std::vector<Transaction>>(
            Status::InvalidArgument("unknown profile '" + profile_name + "'"));
      }();
      if (!data.ok()) return Fail(data.status().ToString());
      streams[t] = std::move(*data);
    }

    Result<EngineFleet> fleet = EngineFleet::Create(fleet_config);
    if (!fleet.ok()) return Fail(fleet.status().ToString());
    if (!restore_path.empty()) {
      Status s = fleet->RestoreTenants(restore_path);
      if (!s.ok()) return Fail(s.ToString());
      size_t restored = 0;
      for (size_t t = 0; t < tenants; ++t) {
        if (fleet->StreamPosition(t) > 0) ++restored;
      }
      std::printf("restored %zu of %zu tenant snapshot(s) from %s\n",
                  restored, tenants, restore_path.c_str());
    }

    std::printf("butterfly_cli: fleet of %zu tenants, H=%zu "
                "stride=%zu scheme=%s policies=%s\n",
                tenants, window, stride,
                SchemeName(config.scheme).c_str(),
                tenant_policy_list.empty()
                    ? ReleasePolicyName(config.policy).c_str()
                    : tenant_policy_list.c_str());

    // Drive the service loop: one stride of records per tenant per round,
    // pump, and rotate the round-robin checkpoint cursor every
    // --checkpoint-every releasing rounds (--checkpoint names a directory).
    std::vector<size_t> cursor(tenants);
    for (size_t t = 0; t < tenants; ++t) {
      cursor[t] = static_cast<size_t>(fleet->StreamPosition(t));
    }
    Stopwatch watch;
    size_t releasing_rounds = 0;
    bool more = true;
    while (more) {
      more = false;
      for (size_t t = 0; t < tenants; ++t) {
        const size_t end = std::min(streams[t].size(), cursor[t] + stride);
        for (; cursor[t] < end; ++cursor[t]) {
          Status s = fleet->Ingest(t, streams[t][cursor[t]]);
          if (!s.ok()) return Fail(s.ToString());
        }
        if (cursor[t] < streams[t].size()) more = true;
      }
      const size_t released = fleet->Pump();
      if (released > 0 && !checkpoint_path.empty() && checkpoint_every > 0 &&
          ++releasing_rounds % checkpoint_every == 0) {
        Result<uint64_t> saved = fleet->CheckpointNextTenant(checkpoint_path);
        if (!saved.ok()) return Fail(saved.status().ToString());
      }
    }
    const double seconds = watch.Seconds();

    FleetStats stats = fleet->Stats();
    std::printf("%-10s %10s %12s %10s %10s %6s\n", "releases", "rel/sec",
                "p50 ms", "p99 ms", "ckpts", "thr");
    std::printf("%-10llu %10.1f %12.3f %10.3f %10llu %6zu\n",
                static_cast<unsigned long long>(stats.releases),
                seconds > 0 ? static_cast<double>(stats.releases) / seconds : 0,
                stats.release_p50_ns / 1e6, stats.release_p99_ns / 1e6,
                static_cast<unsigned long long>(stats.checkpoints_written),
                stats.threads);

    if (!out_path.empty()) {
      std::ofstream out(out_path, std::ios::trunc);
      for (size_t t = 0; t < tenants; ++t) out << fleet->ReleaseLog(t);
      if (!out) return Fail("failed writing " + out_path);
      std::printf("wrote %llu releases (all tenants) to %s\n",
                  static_cast<unsigned long long>(stats.releases),
                  out_path.c_str());
    }
    return 0;
  }

  // Load or generate the stream.
  Result<std::vector<Transaction>> data = [&]() {
    if (!data_path.empty()) return LoadFimiFile(data_path);
    size_t n = records ? records : window + stride * reports;
    if (profile_name == "webview1") {
      return GenerateProfile(DatasetProfile::kBmsWebView1, n);
    }
    if (profile_name == "pos") {
      return GenerateProfile(DatasetProfile::kBmsPos, n);
    }
    return Result<std::vector<Transaction>>(
        Status::InvalidArgument("unknown profile '" + profile_name + "'"));
  }();
  if (!data.ok()) return Fail(data.status().ToString());

  if (!save_data_path.empty()) {
    Status s = SaveFimiFile(save_data_path, *data);
    if (!s.ok()) return Fail(s.ToString());
  }

  size_t fed = 0;       // stream records consumed so far
  size_t reported = 0;  // releases emitted so far
  Result<StreamPrivacyEngine> engine = [&]() {
    if (restore_path.empty()) {
      return StreamPrivacyEngine::Create(window, config);
    }
    return persist::LoadEngineCheckpoint(restore_path);
  }();
  if (!engine.ok()) return Fail(engine.status().ToString());

  if (!restore_path.empty()) {
    // The snapshot is authoritative: window and config come from the file so
    // the resumed run is bit-identical to the uninterrupted one.
    window = engine->miner().window().capacity();
    config = engine->config();
    if ((run_attack || run_audit) &&
        config.policy != ReleasePolicyKind::kButterfly) {
      return Fail("snapshot was taken under --policy=" +
                  ReleasePolicyName(config.policy) +
                  "; --attack/--audit require --policy=butterfly");
    }
    fed = static_cast<size_t>(engine->miner().window().stream_position());
    reported = static_cast<size_t>(engine->release_epoch());
    if (fed > data->size()) {
      return Fail("snapshot is ahead of the stream: it consumed " +
                  std::to_string(fed) + " records but only " +
                  std::to_string(data->size()) + " are available");
    }
    if (!out_path.empty()) {
      Result<size_t> kept = RecoverReleaseLog(out_path);
      if (!kept.ok()) return Fail(kept.status().ToString());
      std::printf("restored %s: %zu records consumed, %zu releases emitted, "
                  "release log holds %zu complete blocks\n",
                  restore_path.c_str(), fed, reported, *kept);
    } else {
      std::printf("restored %s: %zu records consumed, %zu releases emitted\n",
                  restore_path.c_str(), fed, reported);
    }
  }

  AttackConfig attack;
  attack.vulnerable_support = config.vulnerable_support;

  std::printf("butterfly_cli: %zu records, H=%zu C=%ld K=%ld eps=%g delta=%g "
              "scheme=%s policy=%s\n",
              data->size(), window, (long)config.min_support,
              (long)config.vulnerable_support, config.epsilon, config.delta,
              SchemeName(config.scheme).c_str(),
              ReleasePolicyName(config.policy).c_str());
  std::printf("%-16s %9s %8s %8s %8s", "window", "itemsets", "pred", "ropp",
              "rrpp");
  if (run_attack) std::printf(" %8s %10s %9s", "Phv", "avg_prig", "residual");
  if (run_audit) std::printf(" %6s", "audit");
  std::printf("\n");

  size_t audit_failures = 0;
  MiningOutput previous_raw;
  SanitizedOutput previous_release;
  bool have_previous = false;

  for (size_t i = fed; i < data->size(); ++i) {
    engine->Append((*data)[i]);
    ++fed;
    if (fed < window || (fed - window) % stride != 0 || reported >= reports) {
      continue;
    }
    ++reported;

    MiningOutput raw = engine->RawOutput();
    const SanitizedOutput release = engine->Release().output;

    if (!out_path.empty()) {
      std::string label = "Ds(" + std::to_string(fed) + "," +
                          std::to_string(window) + ")";
      Status s = AppendReleaseToFile(out_path, label, release);
      if (!s.ok()) return Fail(s.ToString());
    }

    std::printf("%-16s %9zu %8.5f %8.4f %8.4f",
                engine->miner().window().Label().c_str(), raw.size(),
                AvgPred(raw, release), Ropp(raw, release),
                Rrpp(raw, release, 0.95));
    if (run_attack) {
      std::vector<InferredPattern> breaches = FindIntraWindowBreaches(
          raw, static_cast<Support>(window), attack);
      PrivacyEvaluation eval = EvaluatePrivacy(breaches, release);
      SanitizedAttackReport interval_report = AttackSanitizedRelease(
          release, engine->sanitizer().noise(), breaches);
      std::printf(" %8zu %10.3f %5zu/%zu", breaches.size(), eval.avg_prig,
                  interval_report.residual_breaches,
                  interval_report.patterns_examined);
    }
    if (run_audit) {
      AuditReport audit =
          AuditRelease(raw, release, config,
                       have_previous ? &previous_raw : nullptr,
                       have_previous ? &previous_release : nullptr);
      std::printf(" %6s", audit.passed ? "PASS" : "FAIL");
      if (!audit.passed) {
        ++audit_failures;
        for (const std::string& violation : audit.violations) {
          std::printf("\n    audit: %s", violation.c_str());
        }
      }
      previous_raw = std::move(raw);
      previous_release = release;
      have_previous = true;
    }
    std::printf("\n");
    std::fflush(stdout);

    if (!checkpoint_path.empty() && checkpoint_every > 0 &&
        reported % checkpoint_every == 0) {
      persist::CheckpointWriteStats ckpt;
      Status s = persist::SaveEngineCheckpoint(*engine, checkpoint_path, &ckpt);
      if (!s.ok()) return Fail(s.ToString());
      std::printf("checkpoint %s: %llu bytes in %.2f ms\n",
                  checkpoint_path.c_str(),
                  static_cast<unsigned long long>(ckpt.bytes),
                  ckpt.seconds * 1e3);
    }
  }
  if (run_audit && audit_failures > 0) {
    std::fprintf(stderr, "butterfly_cli: %zu window(s) failed the audit\n",
                 audit_failures);
    return 2;
  }

  if (!out_path.empty()) {
    std::printf("wrote %zu releases to %s\n", reported, out_path.c_str());
  }
  return 0;
}
