#include "common/itemset.h"

#include <algorithm>
#include <compare>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/item_remap.h"
#include "common/rng.h"

namespace butterfly {
namespace {

std::vector<Item> AsVector(const Itemset& s) { return {s.begin(), s.end()}; }

TEST(ItemsetTest, DefaultIsEmpty) {
  Itemset s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.ToString(), "{}");
}

TEST(ItemsetTest, NormalizesUnsortedInput) {
  Itemset s(std::vector<Item>{5, 1, 3});
  EXPECT_EQ(AsVector(s), (std::vector<Item>{1, 3, 5}));
}

TEST(ItemsetTest, NormalizesDuplicates) {
  Itemset s(std::vector<Item>{2, 2, 7, 2, 7});
  EXPECT_EQ(AsVector(s), (std::vector<Item>{2, 7}));
}

TEST(ItemsetTest, InitializerListLiteral) {
  Itemset s{3, 1, 2};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[2], 3u);
}

TEST(ItemsetTest, FromSortedSkipsNormalization) {
  Itemset s = Itemset::FromSorted({1, 4, 9});
  EXPECT_EQ(AsVector(s), (std::vector<Item>{1, 4, 9}));
}

TEST(ItemsetTest, Contains) {
  Itemset s{1, 3, 5};
  EXPECT_TRUE(s.Contains(1));
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(2));
  EXPECT_FALSE(s.Contains(0));
  EXPECT_FALSE(s.Contains(6));
}

TEST(ItemsetTest, ContainsAllAndSubset) {
  Itemset big{1, 2, 3, 4};
  Itemset small{2, 4};
  EXPECT_TRUE(big.ContainsAll(small));
  EXPECT_FALSE(small.ContainsAll(big));
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_TRUE(big.IsSubsetOf(big));
  EXPECT_TRUE(small.IsStrictSubsetOf(big));
  EXPECT_FALSE(big.IsStrictSubsetOf(big));
}

TEST(ItemsetTest, EmptySetIsSubsetOfEverything) {
  Itemset empty;
  Itemset s{7};
  EXPECT_TRUE(empty.IsSubsetOf(s));
  EXPECT_TRUE(empty.IsSubsetOf(empty));
  EXPECT_TRUE(s.ContainsAll(empty));
}

TEST(ItemsetTest, DisjointWith) {
  EXPECT_TRUE((Itemset{1, 3}).DisjointWith(Itemset{2, 4}));
  EXPECT_FALSE((Itemset{1, 3}).DisjointWith(Itemset{3}));
  EXPECT_TRUE(Itemset{}.DisjointWith(Itemset{1}));
}

TEST(ItemsetTest, UnionMinusIntersect) {
  Itemset a{1, 2, 3};
  Itemset b{3, 4};
  EXPECT_EQ(a.Union(b), (Itemset{1, 2, 3, 4}));
  EXPECT_EQ(a.Minus(b), (Itemset{1, 2}));
  EXPECT_EQ(b.Minus(a), (Itemset{4}));
  EXPECT_EQ(a.Intersect(b), (Itemset{3}));
}

TEST(ItemsetTest, WithAndWithout) {
  Itemset s{2, 4};
  EXPECT_EQ(s.With(3), (Itemset{2, 3, 4}));
  EXPECT_EQ(s.With(2), s);  // idempotent
  EXPECT_EQ(s.Without(2), (Itemset{4}));
  EXPECT_EQ(s.Without(9), s);
}

TEST(ItemsetTest, LexicographicOrder) {
  EXPECT_LT((Itemset{1}), (Itemset{1, 2}));
  EXPECT_LT((Itemset{1, 2}), (Itemset{1, 3}));
  EXPECT_LT((Itemset{1, 9}), (Itemset{2}));
  EXPECT_EQ((Itemset{1, 2}), (Itemset{2, 1}));
}

TEST(ItemsetTest, ToStringFormat) {
  EXPECT_EQ((Itemset{3, 1}).ToString(), "{1, 3}");
}

TEST(ItemsetTest, HashEqualSetsAgree) {
  Itemset a{5, 1, 3};
  Itemset b{1, 3, 5};
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ItemsetTest, HashDistinguishesOrderSensitiveContent) {
  // {1, 23} vs {12, 3}: naive concatenation hashes would collide.
  EXPECT_NE((Itemset{1, 23}).Hash(), (Itemset{12, 3}).Hash());
}

// Property check: every set operation agrees with std::set arithmetic on
// random inputs.
class ItemsetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ItemsetPropertyTest, AgreesWithStdSet) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::set<Item> sa, sb;
    for (int i = 0; i < 12; ++i) {
      if (rng.Bernoulli(0.4)) sa.insert(static_cast<Item>(rng.UniformInt(0, 15)));
      if (rng.Bernoulli(0.4)) sb.insert(static_cast<Item>(rng.UniformInt(0, 15)));
    }
    Itemset a((std::vector<Item>(sa.begin(), sa.end())));
    Itemset b((std::vector<Item>(sb.begin(), sb.end())));

    std::set<Item> u(sa);
    u.insert(sb.begin(), sb.end());
    EXPECT_EQ(AsVector(a.Union(b)), std::vector<Item>(u.begin(), u.end()));

    std::vector<Item> diff;
    std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(diff));
    EXPECT_EQ(AsVector(a.Minus(b)), diff);

    std::vector<Item> inter;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::back_inserter(inter));
    EXPECT_EQ(AsVector(a.Intersect(b)), inter);

    bool subset = std::includes(sb.begin(), sb.end(), sa.begin(), sa.end());
    EXPECT_EQ(a.IsSubsetOf(b), subset);

    EXPECT_EQ(a.DisjointWith(b), inter.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemsetPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// n sorted items, three apart from \p base.
std::vector<Item> Spread(size_t n, Item base = 10) {
  std::vector<Item> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = base + static_cast<Item>(3 * i);
  return items;
}

TEST(ItemsetStorageTest, EverySizeAcrossTheInlineLimit) {
  for (size_t n = 0; n <= Itemset::kInline + 2; ++n) {
    const std::vector<Item> items = Spread(n);
    std::vector<Item> reversed(items.rbegin(), items.rend());
    const Itemset s(reversed);
    ASSERT_EQ(s.size(), n);
    EXPECT_EQ(AsVector(s), items) << n;
    EXPECT_EQ(AsVector(Itemset::FromSorted(items)), items) << n;
    EXPECT_EQ(s.items().size(), n);
    EXPECT_EQ(s.end() - s.begin(), static_cast<ptrdiff_t>(n));
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(s[i], items[i]);
  }
}

TEST(ItemsetStorageTest, CopyMoveAndSelfAssignmentAcrossTheLimit) {
  const std::vector<size_t> sizes = {0, 1, Itemset::kInline,
                                     Itemset::kInline + 1, 12};
  for (size_t from : sizes) {
    for (size_t to : sizes) {
      const std::vector<Item> want = Spread(from, 1);
      const Itemset source = Itemset::FromSorted(want);

      Itemset copied = Itemset::FromSorted(Spread(to, 500));
      copied = source;
      EXPECT_EQ(AsVector(copied), want) << from << " over " << to;
      EXPECT_EQ(AsVector(source), want);

      Itemset donor = source;
      Itemset moved = Itemset::FromSorted(Spread(to, 500));
      moved = std::move(donor);
      EXPECT_EQ(AsVector(moved), want) << from << " moved over " << to;
      // A moved-from set is reusable.
      donor = Itemset::FromSorted(Spread(to, 900));
      EXPECT_EQ(AsVector(donor), Spread(to, 900));

      Itemset constructed(std::move(moved));
      EXPECT_EQ(AsVector(constructed), want);
      Itemset copy_constructed(constructed);
      EXPECT_EQ(AsVector(copy_constructed), want);
    }
    Itemset self = Itemset::FromSorted(Spread(from));
    const Itemset& alias = self;
    self = alias;
    EXPECT_EQ(AsVector(self), Spread(from)) << from;
    Itemset& same = self;
    self = std::move(same);
    EXPECT_EQ(AsVector(self), Spread(from)) << from;
  }
}

TEST(ItemsetStorageTest, AssignWithGrowsPastTheLimitAndReusesStorage) {
  Itemset target;
  for (size_t n = 0; n <= Itemset::kInline + 2; ++n) {
    const Itemset base = Itemset::FromSorted(Spread(n));
    target.AssignWith(base, 0);  // below every item
    std::vector<Item> want = Spread(n);
    want.insert(want.begin(), 0);
    EXPECT_EQ(AsVector(target), want) << n;
    target.AssignWith(base, 11);  // between two items
    want.erase(want.begin());
    want.insert(std::upper_bound(want.begin(), want.end(), 11u), 11);
    EXPECT_EQ(AsVector(target), want) << n;
    if (n > 0) {
      target.AssignWith(base, base[n - 1]);  // already a member
      EXPECT_EQ(AsVector(target), Spread(n)) << n;
    }
  }
  // A set that once held many items shrinks back into its array.
  const Itemset small{4, 8};
  target.AssignWith(small, 6);
  EXPECT_EQ(target, (Itemset{4, 6, 8}));
}

TEST(ItemsetStorageTest, WithoutShrinksBelowTheLimit) {
  for (size_t n = 1; n <= Itemset::kInline + 2; ++n) {
    const Itemset s = Itemset::FromSorted(Spread(n));
    for (size_t drop = 0; drop < n; ++drop) {
      std::vector<Item> want = Spread(n);
      want.erase(want.begin() + static_cast<ptrdiff_t>(drop));
      const Itemset smaller = s.Without(s[drop]);
      EXPECT_EQ(AsVector(smaller), want) << n << " drop " << drop;
      EXPECT_EQ(smaller, Itemset::FromSorted(want));
    }
  }
}

// The FNV-1a hash and the lexicographic order the vector representation
// had: both key every noise draw and fix the canonical release order.
size_t VectorHash(const std::vector<Item>& items) {
  size_t h = 1469598103934665603ull;
  for (Item item : items) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= static_cast<size_t>((item >> shift) & 0xff);
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(ItemsetStorageTest, HashAndOrderMatchTheVectorOracle) {
  Rng rng(17);
  std::vector<std::pair<Itemset, std::vector<Item>>> sets;
  for (int round = 0; round < 400; ++round) {
    std::set<Item> items;
    const int64_t size = rng.UniformInt(0, 10);
    while (static_cast<int64_t>(items.size()) < size) {
      // Mostly small ids so that prefixes collide; some wide ones.
      items.insert(static_cast<Item>(rng.Bernoulli(0.8)
                                         ? rng.UniformInt(0, 12)
                                         : rng.UniformInt(0, 4000000000)));
    }
    std::vector<Item> oracle(items.begin(), items.end());
    sets.emplace_back(Itemset(oracle), oracle);
  }
  for (const auto& [s, oracle] : sets) {
    EXPECT_EQ(s.Hash(), VectorHash(oracle));
  }
  for (const auto& [a, va] : sets) {
    for (size_t j = 0; j < 40; ++j) {
      const auto& [b, vb] = sets[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(sets.size()) - 1))];
      EXPECT_EQ(a <=> b, va <=> vb);
      EXPECT_EQ(a == b, va == vb);
    }
  }
}

// ItemRemap against a std::map applying the same id policy: reuse the most
// recently released id, else hand out the next new one.
class RemapOracle {
 public:
  uint32_t Acquire(Item item) {
    auto [it, inserted] = ids_.try_emplace(item, 0);
    if (inserted) {
      if (!free_.empty()) {
        it->second = free_.back();
        free_.pop_back();
      } else {
        it->second = limit_++;
      }
    }
    return it->second;
  }
  uint32_t Find(Item item) const {
    auto it = ids_.find(item);
    return it == ids_.end() ? ItemRemap::kNone : it->second;
  }
  void Release(Item item) {
    auto it = ids_.find(item);
    if (it == ids_.end()) return;
    free_.push_back(it->second);
    ids_.erase(it);
  }
  size_t live() const { return ids_.size(); }
  size_t dense_limit() const { return limit_; }

 private:
  std::map<Item, uint32_t> ids_;
  std::vector<uint32_t> free_;
  uint32_t limit_ = 0;
};

TEST(ItemRemapTest, RandomChurnMatchesAMapOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    ItemRemap remap;
    RemapOracle oracle;
    // Phases that grow the live set (and the table, several times, in the
    // middle of the churn) and then shrink it again.
    for (int phase = 0; phase < 8; ++phase) {
      const double acquire = phase % 2 == 0 ? 0.7 : 0.3;
      const int64_t universe = phase < 4 ? 300 : 3000;
      for (int op = 0; op < 4000; ++op) {
        const Item item = static_cast<Item>(
            rng.Bernoulli(0.9) ? rng.UniformInt(0, universe)
                               : rng.UniformInt(0, 4000000000));
        const double kind = rng.UniformReal();
        if (kind < acquire) {
          ASSERT_EQ(remap.Acquire(item), oracle.Acquire(item)) << item;
        } else if (kind < 0.9) {
          remap.Release(item);
          oracle.Release(item);
        }
        ASSERT_EQ(remap.Find(item), oracle.Find(item)) << item;
        ASSERT_EQ(remap.live(), oracle.live());
        ASSERT_EQ(remap.dense_limit(), oracle.dense_limit());
      }
      for (Item item = 0; item <= static_cast<Item>(universe); ++item) {
        ASSERT_EQ(remap.Find(item), oracle.Find(item)) << item;
      }
    }
  }
}

// The table starts at 16 slots and holds at most 8 items, and an item's
// home slot is the top four bits of item * 2^64/phi. Items homed at the last
// slots make probe runs that wrap past the table's end.
std::vector<Item> ItemsHomedAt(size_t slot, size_t count) {
  std::vector<Item> items;
  for (Item item = 1; items.size() < count; ++item) {
    if (((item * 0x9e3779b97f4a7c15ull) >> 60) == slot) items.push_back(item);
  }
  return items;
}

TEST(ItemRemapTest, DeletionsWhoseProbeRunsWrapTheTableEnd) {
  const std::vector<Item> at15 = ItemsHomedAt(15, 4);
  const std::vector<Item> at14 = ItemsHomedAt(14, 2);
  const std::vector<Item> at0 = ItemsHomedAt(0, 1);
  std::vector<Item> all = {at14[0], at15[0], at15[1], at0[0],
                           at15[2], at14[1], at15[3]};
  // Remove each item in turn from a table holding all seven: slots 14 and
  // 15, then 0, 1, ... after the wrap.
  for (size_t victim = 0; victim < all.size(); ++victim) {
    ItemRemap remap;
    RemapOracle oracle;
    for (Item item : all) {
      ASSERT_EQ(remap.Acquire(item), oracle.Acquire(item));
    }
    remap.Release(all[victim]);
    oracle.Release(all[victim]);
    for (Item item : all) {
      EXPECT_EQ(remap.Find(item), oracle.Find(item))
          << "item " << item << " after releasing " << all[victim];
    }
    // Drain the rest in order, checking after every step.
    for (Item gone : all) {
      remap.Release(gone);
      oracle.Release(gone);
      for (Item item : all) {
        ASSERT_EQ(remap.Find(item), oracle.Find(item)) << item;
      }
    }
    EXPECT_EQ(remap.live(), 0u);
  }
}

}  // namespace
}  // namespace butterfly
