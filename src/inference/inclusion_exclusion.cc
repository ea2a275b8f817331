#include "inference/inclusion_exclusion.h"

#include <cassert>

#include "common/bits.h"

namespace butterfly {

namespace {

// Builds the itemset I ∪ {items of D selected by mask}.
Itemset Compose(const Itemset& base, const Itemset& extension, uint32_t mask) {
  std::vector<Item> items(base.begin(), base.end());
  for (size_t b = 0; b < extension.size(); ++b) {
    if (mask & (1u << b)) items.push_back(extension[b]);
  }
  return Itemset(std::move(items));
}

}  // namespace

std::vector<Itemset> EnumerateLattice(const Itemset& sub, const Itemset& super) {
  assert(sub.IsSubsetOf(super));
  Itemset free_items = super.Minus(sub);
  assert(free_items.size() < 31);
  std::vector<Itemset> lattice;
  lattice.reserve(1u << free_items.size());
  for (uint32_t mask = 0; mask < (1u << free_items.size()); ++mask) {
    lattice.push_back(Compose(sub, free_items, mask));
  }
  return lattice;
}

namespace {

template <typename Value, typename Provider>
std::optional<Value> DeriveImpl(const Provider& known, const Pattern& pattern) {
  const Itemset& base = pattern.positive();
  const Itemset& negated = pattern.negated();
  assert(negated.size() < 31);
  Value total = 0;
  for (uint32_t mask = 0; mask < (1u << negated.size()); ++mask) {
    auto support = known(Compose(base, negated, mask));
    if (!support) return std::nullopt;
    int sign = EvenParity(mask) ? 1 : -1;
    total += sign * *support;
  }
  return total;
}

}  // namespace

std::optional<Support> DerivePatternSupport(const SupportProvider& known,
                                            const Pattern& pattern) {
  return DeriveImpl<Support>(known, pattern);
}

std::optional<double> DerivePatternEstimate(const RealSupportProvider& known,
                                            const Pattern& pattern) {
  return DeriveImpl<double>(known, pattern);
}

Interval EstimateItemsetBounds(const SupportProvider& known, const Itemset& j) {
  assert(j.size() >= 1 && j.size() < 20);
  const uint32_t full = (1u << j.size()) - 1;

  // Cache subset supports by mask; -1 marks unknown.
  std::vector<Support> cache(full + 1, -1);
  std::vector<bool> available(full + 1, false);
  for (uint32_t mask = 0; mask < full; ++mask) {  // strict subsets only
    auto support = known(Compose({}, j, mask));
    if (support) {
      cache[mask] = *support;
      available[mask] = true;
    }
  }

  Interval bound = Interval::Unbounded();
  // Anchor the inclusion-exclusion bound at every strict subset I of J.
  for (uint32_t anchor = 0; anchor < full; ++anchor) {
    uint32_t free_bits = full & ~anchor;
    // The bound needs every X with I ⊆ X ⊂ J; walk supersets of anchor.
    bool complete = true;
    Support sigma = 0;
    // Enumerate subsets s of free_bits; X = anchor | s, excluding X == full.
    uint32_t s = free_bits;
    while (true) {
      uint32_t x = anchor | s;
      if (x != full) {
        if (!available[x]) {
          complete = false;
          break;
        }
        // Sign (−1)^{|J\X|+1}: positive when J\X has odd size.
        int missing = PopCount(full & ~x);
        sigma += (missing % 2 == 1) ? cache[x] : -cache[x];
      }
      if (s == 0) break;
      s = (s - 1) & free_bits;
    }
    if (!complete) continue;

    int distance = PopCount(free_bits);  // |J \ I|
    if (distance % 2 == 1) {
      bound.hi = std::min(bound.hi, sigma);
    } else {
      bound.lo = std::max(bound.lo, sigma);
    }
  }
  return bound.ClampNonNegative();
}

}  // namespace butterfly
