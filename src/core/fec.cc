#include "core/fec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace butterfly {

namespace {

/// Appends \p itemset to a class's member list, keeping it sorted. Members
/// almost always arrive in ascending (sealed miner) order, so the common
/// case is a push_back guarded by an O(1) position check; out-of-order
/// arrivals fall back to a binary-searched insert.
void InsertMember(std::vector<Itemset>* members, const Itemset& itemset) {
  if (members->empty() || members->back() < itemset) {
    members->push_back(itemset);
    return;
  }
  members->insert(
      std::lower_bound(members->begin(), members->end(), itemset), itemset);
}

}  // namespace

std::vector<Fec> PartitionIntoFecs(const MiningOutput& output) {
  std::map<Support, Fec> by_support;
  for (const FrequentItemset& f : output.itemsets()) {
    Fec& fec = by_support[f.support];
    fec.support = f.support;
    // Sealed outputs walk in lexicographic order, so this is a pure
    // push_back; the position check keeps unsealed inputs correct too.
    InsertMember(&fec.members, f.itemset);
  }
  std::vector<Fec> fecs;
  fecs.reserve(by_support.size());
  for (auto& [support, fec] : by_support) {
    fecs.push_back(std::move(fec));
  }
  return fecs;
}

void FecPartitioner::Reset() {
  classes_.clear();
  view_.clear();
  view_dirty_ = false;
  synced_ = false;
  last_incremental_ = false;
  applied_version_ = 0;
  total_members_ = 0;
}

void FecPartitioner::Rebuild(const MiningOutput& out) {
  classes_.clear();
  for (const FrequentItemset& f : out.itemsets()) {
    Fec& fec = classes_[f.support];
    fec.support = f.support;
    InsertMember(&fec.members, f.itemset);
  }
  total_members_ = out.size();
  view_dirty_ = true;
}

void FecPartitioner::Insert(const Itemset& itemset, Support support) {
  auto [it, created] = classes_.try_emplace(support);
  if (created) {
    it->second.support = support;
    view_dirty_ = true;
  }
  InsertMember(&it->second.members, itemset);
  ++total_members_;
}

void FecPartitioner::Remove(const Itemset& itemset, Support support) {
  auto it = classes_.find(support);
  assert(it != classes_.end());
  if (it == classes_.end()) return;
  std::vector<Itemset>& members = it->second.members;
  auto pos = std::lower_bound(members.begin(), members.end(), itemset);
  assert(pos != members.end() && *pos == itemset);
  if (pos == members.end() || !(*pos == itemset)) return;
  members.erase(pos);
  --total_members_;
  if (members.empty()) {
    classes_.erase(it);
    view_dirty_ = true;
  }
}

void FecPartitioner::RefreshView() {
  if (!view_dirty_) return;
  view_.clear();
  view_.reserve(classes_.size());
  for (const auto& [support, fec] : classes_) view_.push_back(&fec);
  view_dirty_ = false;
}

void FecPartitioner::Sync(const MiningOutput& out, uint64_t version,
                          const MiningOutputDelta& delta) {
  if (synced_ && version == applied_version_) {
    last_incremental_ = true;  // nothing to do: already at this version
    return;
  }
  const bool can_patch =
      synced_ && !delta.rebuilt && version == applied_version_ + 1;
  if (!can_patch) {
    Rebuild(out);
    last_incremental_ = false;
  } else {
    // Removals first (including the old side of every support change), so a
    // member moving between classes never transiently collides.
    for (const auto& [itemset, support] : delta.removed) {
      Remove(itemset, support);
    }
    for (const MiningOutputDelta::SupportChange& c : delta.changed) {
      Remove(c.itemset, c.old_support);
    }
    for (const auto& [itemset, support] : delta.added) {
      Insert(itemset, support);
    }
    for (const MiningOutputDelta::SupportChange& c : delta.changed) {
      Insert(c.itemset, c.new_support);
    }
    last_incremental_ = true;
    assert(total_members_ == out.size());
  }
  applied_version_ = version;
  synced_ = true;
  RefreshView();
}

double MaxAdjustableBias(Support support, double epsilon,
                         double noise_variance) {
  double t = static_cast<double>(support);
  double budget = epsilon * t * t - noise_variance;
  return budget > 0 ? std::sqrt(budget) : 0.0;
}

}  // namespace butterfly
