// bfly_lint fixture: container-promotion. Hybrid tid-container
// representation decisions (ChooseKind / Reconsider / ConvertTo) must be
// pure functions of (cardinality, H); RNG draws or unordered containers
// near the decision fork container forms across replicas and restores.
// Clean call sites must stay silent.
// This file is never compiled.
#include <cstdint>
#include <unordered_map>

// Clean: the decision consumes only counts; nothing may fire here.
Kind PromoteCleanly(uint32_t card, uint32_t h) {
  return ChooseKind(card, h);
}

// (spacer comments keep the clean site outside the dirty sites' taint
// windows — the rule scans a few lines around each promotion call)

// Dirty: a coin flip feeds the decision.
Kind PromoteWithCoinFlip(Rng* rng, uint32_t card, uint32_t h) {
  uint32_t jitter = rng->Bernoulli(0.5) ? 1u : 0u;
  return ChooseKind(card + jitter, h);  // VIOLATION container-promotion
}

// Dirty: a hash-ordered histogram feeds a reconsideration hint.
void ReconsiderFromHashOrder(TidContainer* c) {
  std::unordered_map<uint16_t, uint32_t> hist;
  c->Reconsider(static_cast<uint32_t>(hist.size()));  // VIOLATION container-promotion
}

// Dirty: a sampled threshold picks the target representation.
void ConvertOnSample(TidContainer* c, Rng* rng) {
  if (rng->UniformInt(0, 1) == 0) {
    c->ConvertTo(Kind::kBitmap);  // VIOLATION container-promotion
  }
}
