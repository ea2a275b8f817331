#include "policy/butterfly_policy.h"

namespace butterfly {

SanitizedOutput ButterflyReleasePolicy::Release(const MiningOutput& frequent,
                                                const WindowContext& ctx,
                                                ReleaseStats* stats) {
  StageSpans* spans = nullptr;
  if (stats != nullptr) {
    stats->epoch = engine_.epoch();
    spans = &stats->spans;
  }
  return engine_.Sanitize(frequent, ctx.window_size, spans);
}

}  // namespace butterfly
