// bfly_lint fixture: a release-policy source (basename policy_*) that draws
// calibrated noise without touching the epsilon ledger. Both marked lines
// must produce policy-budget findings: a bare Laplace perturbation with no
// accounting in scope, and a ReleaseItems call with no ledger update in the
// same function. AccountedDraw shows the passing shape.
// This file is never compiled.
#include <cstdint>

#include "common/rng.h"

namespace butterfly {

struct Partition;
void ReleaseItems(Partition* view);

// Draws Laplace noise but never records the epsilon it spends.
double PerturbSupport(uint64_t seed, uint64_t epoch, double support) {
  CounterRng rng(seed, epoch, 0);  // VIOLATION policy-budget
  return support + SampleLaplace(&rng, 1.0);
}

// Calls the noise-drawing release routine with no ledger update beside it
// (DpPolicyBase::Release pairs its call with one).
void PublishEpoch(Partition* view) {
  ReleaseItems(view);  // VIOLATION policy-budget
}

// The passing shape: the draw and the ledger update share a function.
double AccountedDraw(uint64_t seed, uint64_t epoch, double cumulative_epsilon_) {
  CounterRng rng(seed, epoch, 1);
  const double spent = SampleLaplace(&rng, 1.0);
  cumulative_epsilon_ += spent;
  return cumulative_epsilon_;
}

}  // namespace butterfly
