// bfly_lint fixture: the sanctioned budget-accounting composition, plus a
// justified allowance. Noise draws live in the ReleaseItems override, an
// allowlisted composition helper; Release pairs that call with the epsilon
// ledger update in its own body, so it passes without any exemption. The
// harness-only draw carries an explicit allowance. This file must lint
// completely clean. It is never compiled.
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace butterfly {

struct Row {
  double noisy = 0.0;
};

class LaplacePolicy {
 public:
  // Allowlisted helper: draws noise, accounting handled by Release.
  std::vector<Row> ReleaseItems(uint64_t epoch) {
    CounterRng rng(seed_, epoch, 7);
    std::vector<Row> rows(1);
    rows[0].noisy = SampleLaplace(&rng, 1.0);
    return rows;
  }

  // Composition point: the ReleaseItems call is paired with an
  // EpsilonSpent/Accumulate ledger update in the same function.
  std::vector<Row> Release(uint64_t epoch) {
    std::vector<Row> rows = ReleaseItems(epoch);
    cumulative_epsilon_ = Accumulate(cumulative_epsilon_, EpsilonSpent());
    return rows;
  }

 private:
  uint64_t seed_ = 0;
  double cumulative_epsilon_ = 0.0;

  double EpsilonSpent() const { return 0.1; }
  static double Accumulate(double total, double spent) { return total + spent; }
};

// Calibration harness draw: never feeds a release, so it spends no budget.
double HarnessOnlyDraw(uint64_t seed) {
  // bfly-lint: allow(policy-budget) calibration harness draw; output never
  // reaches a release
  CounterRng rng(seed, 0, 0);
  return UniformOpenZero(&rng);
}

}  // namespace butterfly
