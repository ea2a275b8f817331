/// \file ablation_incremental.cc
/// \brief Ablation of the incremental bias-setting cache (the paper's
/// future-work "incremental version"): per-window Opt cost, hit rate, and
/// order-preservation quality as the allowed FEC support drift grows.
///
/// Observed (and worth knowing): at per-slide release cadence an EXACT
/// structural match never occurs — almost every slide changes some FEC's
/// support — so a useful incremental mode must tolerate small drift. The
/// sweep quantifies the latency saved versus the avg_ropp given up by
/// reusing slightly-stale biases.

#include <vector>

#include "common/timing.h"
#include "harness.h"
#include "metrics/utility_metrics.h"

namespace butterfly::bench {
namespace {

void Run(DatasetProfile profile) {
  TraceConfig trace_config;
  trace_config.profile = profile;
  trace_config.window = 2000;
  trace_config.min_support = 25;
  trace_config.reports = 100;
  trace_config.stride = 1;
  WindowTrace trace = CollectTrace(trace_config);

  SchemeVariant opt{"Opt", ButterflyScheme::kOrderPreserving, 1.0};
  PrintTableHeader("Incremental-mode ablation, " + ProfileName(profile) +
                       ", per-slide releases",
                   {"tolerance", "opt s/window", "hit rate", "avg_ropp"});

  for (Support tolerance : {-1, 0, 1, 2, 5, 10}) {
    ButterflyConfig config = MakeConfig(trace_config, opt, 0.016, 0.4);
    config.cache_bias_settings = tolerance >= 0;
    config.bias_cache_tolerance = std::max<Support>(tolerance, 0);
    ButterflyEngine engine(config);
    Stopwatch watch;
    double total = 0, ropp = 0;
    size_t hits = 0;
    for (const MiningOutput& raw : trace.raw) {
      watch.Restart();
      SanitizedOutput release =
          engine.Sanitize(raw, static_cast<Support>(trace_config.window));
      total += watch.Seconds();
      if (engine.last_biases_were_cached()) ++hits;
      ropp += Ropp(raw, release);
    }
    double n = static_cast<double>(trace.raw.size());
    PrintTableRow({tolerance < 0 ? "cache off" : std::to_string(tolerance),
                   FormatDouble(total / n, 5),
                   FormatDouble(static_cast<double>(hits) / n, 2),
                   FormatDouble(ropp / n, 4)});
  }
}

}  // namespace
}  // namespace butterfly::bench

int main() {
  std::printf("Butterfly ablation: incremental bias-setting cache vs allowed "
              "FEC support drift\norder-preserving scheme, C=25 K=5 H=2000, "
              "100 per-slide windows\n");
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsWebView1);
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsPos);
  return 0;
}
