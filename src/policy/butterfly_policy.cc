#include "policy/butterfly_policy.h"

namespace butterfly {

void ButterflyReleasePolicy::FillStats(PolicyStats* stats) const {
  if (stats == nullptr) return;
  const SanitizeStageTimes& stages = engine_.last_stage_times();
  stats->partition_ns = stages.partition_ns;
  stats->bias_ns = stages.bias_ns;
  stats->noise_ns = stages.noise_ns;
  stats->emit_ns = stages.emit_ns;
  stats->bias_cache_hit = stages.bias_cache_hit;
}

SanitizedOutput ButterflyReleasePolicy::Release(const MiningOutput& frequent,
                                                const WindowContext& ctx,
                                                PolicyStats* stats) {
  if (stats != nullptr) stats->epoch = engine_.epoch();
  SanitizedOutput release =
      engine_.Sanitize(frequent, ctx.window_size, ctx.fecs);
  FillStats(stats);
  return release;
}

}  // namespace butterfly
