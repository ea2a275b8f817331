#include "moment/moment.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <span>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "persist/serializer.h"

namespace butterfly {

namespace {
constexpr uint32_t kMinerTag = persist::SectionTag('C', 'E', 'T', 'M');
}  // namespace

/// One arena slot. Links are arena indices, never pointers: the pool may
/// reallocate while a subtree is being built. Child and extension-count
/// arrays are flat and sorted by item — the same ascending order the legacy
/// std::map layout iterated in, which keeps the mined output bit-identical.
struct MomentMiner::CetNode {
  struct ExtCount {
    Item item;
    Support count;
  };
  struct ChildEntry {
    Item item;
    uint32_t node;
  };

  Itemset itemset;
  Item branch_item = kInvalidItem;  // invalid for the root
  Support support = 0;              // >= C, except at the root

  bool unpromising = false;  // unpromising gateway leaf

  /// j -> T(I ∪ {j}) for every frequent item j outside I co-occurring
  /// with I.
  std::vector<ExtCount> ext_counts;
  /// Children keyed by branch item (> branch_item): exactly the extension
  /// items above the branch item counted at least C times; empty for an
  /// unpromising node.
  std::vector<ChildEntry> children;

  bool is_root() const { return branch_item == kInvalidItem; }

  /// Index of \p item's extension count, or where it would be inserted.
  size_t ExtPos(Item item) const {
    auto it = std::lower_bound(
        ext_counts.begin(), ext_counts.end(), item,
        [](const ExtCount& e, Item j) { return e.item < j; });
    return static_cast<size_t>(it - ext_counts.begin());
  }

  /// True iff \p item has an extension count.
  bool Counts(Item item) const {
    const size_t pos = ExtPos(item);
    return pos < ext_counts.size() && ext_counts[pos].item == item;
  }

  /// The tail of the sorted \p items above the branch item (every item,
  /// at the root): the candidates for children, all outside the itemset.
  std::span<const Item> Above(std::span<const Item> items) const {
    if (is_root()) return items;
    return items.subspan(static_cast<size_t>(
        std::upper_bound(items.begin(), items.end(), branch_item) -
        items.begin()));
  }

  /// Index into children for \p item, or npos.
  size_t FindChild(Item item) const {
    auto it = std::lower_bound(
        children.begin(), children.end(), item,
        [](const ChildEntry& e, Item j) { return e.item < j; });
    if (it == children.end() || it->item != item) return npos;
    return static_cast<size_t>(it - children.begin());
  }

  /// Extension count of \p item; the entry must exist.
  Support ExtCountOf(Item item) const {
    assert(Counts(item));
    return ext_counts[ExtPos(item)].count;
  }

  static constexpr size_t npos = static_cast<size_t>(-1);
};

MomentMiner::MomentMiner(size_t window_capacity, Support min_support,
                         IndexRowStore row_store)
    : window_(window_capacity),
      min_support_(min_support),
      index_(window_capacity, row_store) {
  assert(min_support > 0);
  arena_.emplace_back();  // the root, index kRoot
}

MomentMiner::~MomentMiner() = default;

MomentMiner::CetNode& MomentMiner::N(uint32_t idx) { return arena_[idx]; }
const MomentMiner::CetNode& MomentMiner::N(uint32_t idx) const {
  return arena_[idx];
}

MomentMiner::MomentMiner(MomentMiner&&) noexcept = default;
MomentMiner& MomentMiner::operator=(MomentMiner&&) noexcept = default;

uint32_t MomentMiner::AllocNode() {
  uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    // Free-list integrity: a pooled index must address an existing slot and
    // never resurrect the root.
    BFLY_DCHECK_MSG(idx != kRoot && idx < arena_.size(),
                    "corrupt arena free list");
  } else {
    idx = checked_cast<uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  CetNode& node = arena_[idx];
  node.branch_item = kInvalidItem;
  node.support = 0;
  node.unpromising = false;
  BFLY_DCHECK_MSG(node.ext_counts.empty() && node.children.empty(),
                  "recycled CET node still owns links");
  return idx;
}

void MomentMiner::FreeNode(uint32_t idx) {
  BFLY_DCHECK_MSG(idx != kRoot, "attempt to free the CET root");
  BFLY_DCHECK_MSG(idx < arena_.size(), "free of an index outside the arena");
  CetNode& node = arena_[idx];
  BFLY_DCHECK_MSG(node.children.empty(),
                  "freeing a CET node that still has children");
  node.ext_counts.clear();  // clear() keeps capacity for the next tenant
  free_.push_back(idx);
}

void MomentMiner::FreeChildren(uint32_t idx) {
  CetNode& node = arena_[idx];
  for (const CetNode::ChildEntry& entry : node.children) {
    FreeChildren(entry.node);
    FreeNode(entry.node);
  }
  node.children.clear();
}

void MomentMiner::Append(Transaction t) {
  BFLY_DCHECK_MSG(t.items.empty() || t.items.items().back() != kInvalidItem,
                  "a stream record holds kInvalidItem, the CET root marker");
  // Slide the window (and its bitmap mirror) first: the exploration paths
  // query the index, so it must already reflect the post-slide contents when
  // the tree update runs. The expiry path never explores (expiries cannot
  // create nodes), so processing it against the already-slid state is sound.
  // The root counts exactly the items of F: before the expiry, F before the
  // slide; before the arrival, F after it.
  std::optional<Transaction> evicted = window_.Append(std::move(t));
  const Transaction& added = window_.transactions().back();
  index_.Apply(&added, evicted ? &*evicted : nullptr);
  if (evicted) {
    frequent_scratch_.clear();
    for (Item j : evicted->items) {
      if (N(kRoot).Counts(j)) frequent_scratch_.push_back(j);
    }
    UpdateDelete(kRoot, frequent_scratch_);
    // An item that left F is erased wherever it is counted: at the stored
    // nodes its remaining records contain. No stored node contains it, and
    // none of its counts reached C, so no flag or child depends on it.
    for (Item j : frequent_scratch_) {
      if (index_.ItemSupport(j) < min_support_) {
        ShiftItemCounts(j, -1, nullptr);
      }
    }
  }
  frequent_scratch_.clear();
  for (Item j : added.items) {
    if (!N(kRoot).Counts(j)) {
      if (index_.ItemSupport(j) < min_support_) continue;
      // j entered F with this arrival: count it at the stored nodes its
      // other records contain. Each such count is at most C - 1 < T(I), so
      // no flag changes until the arrival below is applied.
      ShiftItemCounts(j, +1, &added);
    }
    frequent_scratch_.push_back(j);
  }
  UpdateAdd(kRoot, frequent_scratch_);
}

template <typename Fn>
void MomentMiner::VisitContained(uint32_t idx, const Itemset& record,
                                 const Fn& fn) {
  CetNode& node = N(idx);  // stable: fn never allocates arena nodes
  fn(&node);
  if (node.children.empty()) return;
  for (Item j : node.Above(record.items())) {
    const size_t pos = node.FindChild(j);
    if (pos != CetNode::npos) {
      VisitContained(node.children[pos].node, record, fn);
    }
  }
}

void MomentMiner::ShiftItemCounts(Item j, int delta, const Transaction* skip) {
  Bitmap tidset;
  if (index_.Tidset(Itemset{j}, &tidset) == 0) return;
  tidset.ForEachSetBit([&](size_t slot) {
    const Transaction* record = index_.transaction(slot);
    if (record == skip) return;
    VisitContained(kRoot, record->items, [&](CetNode* node) {
      std::vector<CetNode::ExtCount>& ext = node->ext_counts;
      const auto at = ext.begin() + static_cast<ptrdiff_t>(node->ExtPos(j));
      if (at == ext.end() || at->item != j) {
        assert(delta > 0);
        ext.insert(at, {j, 1});
      } else if ((at->count += delta) == 0) {
        ext.erase(at);
      }
    });
  });
}

Bitmap& MomentMiner::ScratchAt(size_t depth) {
  while (tidset_scratch_.size() <= depth) tidset_scratch_.emplace_back();
  return tidset_scratch_[depth];
}

Item MomentMiner::Blocker(const CetNode& node) {
  if (node.is_root()) return kInvalidItem;
  for (const CetNode::ExtCount& ec : node.ext_counts) {
    if (ec.item >= node.branch_item) break;  // array is sorted
    if (ec.count == node.support) return ec.item;
  }
  return kInvalidItem;
}

bool MomentMiner::HasUnpromisingBlocker(const CetNode& node) {
  return Blocker(node) != kInvalidItem;
}

bool MomentMiner::IsClosed(const CetNode& node) {
  for (const CetNode::ExtCount& ec : node.ext_counts) {
    if (ec.count == node.support) return false;
  }
  return true;
}

void MomentMiner::BuildExtCounts(uint32_t idx, size_t depth) {
  if (count_scratch_.size() < index_.dense_limit()) {
    count_scratch_.resize(index_.dense_limit(), 0);
  }
  touched_scratch_.clear();
  CetNode& node = N(idx);  // stable: nothing below allocates arena nodes
  const Itemset& self = node.itemset;
  tidset_scratch_[depth].ForEachSetBit([&](size_t slot) {
    const Transaction* t = index_.transaction(slot);
    size_t si = 0;  // merge pointer into the (sorted) own itemset
    for (Item j : t->items) {
      while (si < self.size() && self[si] < j) ++si;
      if (si < self.size() && self[si] == j) continue;
      if (index_.ItemSupport(j) < min_support_) continue;  // j is not in F
      const uint32_t dense = index_.DenseId(j);
      assert(dense != ItemRemap::kNone);
      if (count_scratch_[dense]++ == 0) touched_scratch_.push_back(j);
    }
  });
  std::sort(touched_scratch_.begin(), touched_scratch_.end());
  node.ext_counts.clear();
  if (node.ext_counts.capacity() < touched_scratch_.size()) {
    node.ext_counts.reserve(touched_scratch_.size());
  }
  for (Item j : touched_scratch_) {
    const uint32_t dense = index_.DenseId(j);
    node.ext_counts.push_back({j, count_scratch_[dense]});
    count_scratch_[dense] = 0;  // leave the scratch zeroed for the next use
  }
}

void MomentMiner::Explore(uint32_t idx, size_t depth) {
  assert(N(idx).support >= min_support_ && N(idx).children.empty());
  assert(N(idx).support ==
         static_cast<Support>(tidset_scratch_[depth].Popcount()));
  BuildExtCounts(idx, depth);
  if (HasUnpromisingBlocker(N(idx))) {
    N(idx).unpromising = true;
    return;
  }
  ExpandFromCounts(idx, depth);
}

void MomentMiner::ExpandFromCounts(uint32_t idx, size_t depth) {
  assert(N(idx).children.empty());
  // Children materialize in ascending item order (ext_counts is sorted), so
  // the child array is appended, never inserted into. Entries are re-read
  // through N() each round: Explore below may grow the arena.
  for (size_t k = 0; k < N(idx).ext_counts.size(); ++k) {
    const CetNode::ExtCount ec = N(idx).ext_counts[k];
    if (!N(idx).is_root() && ec.item < N(idx).branch_item) continue;
    if (ec.count < min_support_) continue;  // an infrequent gateway
    const uint32_t child_idx = AllocNode();
    {
      CetNode& child = N(child_idx);
      child.itemset.AssignWith(N(idx).itemset, ec.item);
      child.branch_item = ec.item;
      child.support = ec.count;
    }
    Bitmap& child_tidset = ScratchAt(depth + 1);
    const Support refined =
        index_.Refine(tidset_scratch_[depth], ec.item, &child_tidset);
    assert(refined == ec.count);
    (void)refined;
    Explore(child_idx, depth + 1);
    N(idx).children.push_back({ec.item, child_idx});
  }
}

void MomentMiner::MergeAddExtCounts(CetNode* node,
                                    const std::vector<Item>& items) {
  std::vector<CetNode::ExtCount>& ec = node->ext_counts;
  const Itemset& self = node->itemset;
  missing_scratch_.clear();
  size_t si = 0;  // merge pointer into the own itemset
  size_t e = 0;   // merge pointer into ext_counts (both ascend with j)
  for (Item j : items) {
    while (si < self.size() && self[si] < j) ++si;
    if (si < self.size() && self[si] == j) continue;
    while (e < ec.size() && ec[e].item < j) ++e;
    if (e < ec.size() && ec[e].item == j) {
      ++ec[e].count;
    } else {
      missing_scratch_.push_back(j);  // first co-occurrence in the window
    }
  }
  if (missing_scratch_.empty()) return;
  // Backward in-place merge of the new items (count 1 each).
  const size_t old_size = ec.size();
  ec.resize(old_size + missing_scratch_.size());
  ptrdiff_t read = static_cast<ptrdiff_t>(old_size) - 1;
  ptrdiff_t write = static_cast<ptrdiff_t>(ec.size()) - 1;
  ptrdiff_t m = static_cast<ptrdiff_t>(missing_scratch_.size()) - 1;
  while (m >= 0) {
    if (read >= 0 && ec[read].item > missing_scratch_[m]) {
      ec[write--] = ec[read--];
    } else {
      ec[write--] = {missing_scratch_[m--], 1};
    }
  }
}

void MomentMiner::MergeSubExtCounts(CetNode* node,
                                    const std::vector<Item>& items) {
  std::vector<CetNode::ExtCount>& ec = node->ext_counts;
  const Itemset& self = node->itemset;
  size_t si = 0;
  size_t e = 0;
  bool zeroed = false;
  for (Item j : items) {
    while (si < self.size() && self[si] < j) ++si;
    if (si < self.size() && self[si] == j) continue;
    while (e < ec.size() && ec[e].item < j) ++e;
    assert(e < ec.size() && ec[e].item == j);
    if (--ec[e].count == 0) zeroed = true;
  }
  if (zeroed) {
    ec.erase(std::remove_if(
                 ec.begin(), ec.end(),
                 [](const CetNode::ExtCount& c) { return c.count == 0; }),
             ec.end());
  }
}

void MomentMiner::UpdateAdd(uint32_t idx, const std::vector<Item>& items) {
  {
    CetNode& node = N(idx);
    ++node.support;
    MergeAddExtCounts(&node, items);

    if (node.unpromising) {
      // Arrivals can only break blockers (a blocker item occurs in every
      // record containing I, hence also in t, so equalities survive unless
      // broken).
      if (!HasUnpromisingBlocker(node)) {
        node.unpromising = false;
        const size_t depth = node.itemset.size();
        const Support support = index_.Tidset(node.itemset, &ScratchAt(depth));
        assert(support == node.support);
        (void)support;
        ExpandFromCounts(idx, depth);
      }
      return;
    }
  }

  // Recursion below may grow the arena, so the node is re-read through N()
  // after every step that can allocate.
  for (Item j : N(idx).Above(items)) {
    const size_t pos = N(idx).FindChild(j);
    if (pos != CetNode::npos) {
      UpdateAdd(N(idx).children[pos].node, items);
      continue;
    }
    const Support child_support = N(idx).ExtCountOf(j);
    if (child_support < min_support_) continue;  // an infrequent gateway
    // I ∪ {j} just reached C: a new frequent child.
    const uint32_t child_idx = AllocNode();
    {
      CetNode& child = N(child_idx);
      child.itemset.AssignWith(N(idx).itemset, j);
      child.branch_item = j;
      child.support = child_support;
    }
    const size_t depth = N(child_idx).itemset.size();
    const Support support =
        index_.Tidset(N(child_idx).itemset, &ScratchAt(depth));
    assert(support == child_support);
    (void)support;
    Explore(child_idx, depth);
    std::vector<CetNode::ChildEntry>& children = N(idx).children;
    children.insert(
        std::upper_bound(children.begin(), children.end(), j,
                         [](Item item, const CetNode::ChildEntry& e) {
                           return item < e.item;
                         }),
        {j, child_idx});
  }
}

bool MomentMiner::UpdateDelete(uint32_t idx, const std::vector<Item>& items) {
  // The delete path never allocates arena nodes, so references stay valid.
  CetNode& node = N(idx);
  --node.support;
  if (!node.is_root() && node.support < min_support_) return true;

  MergeSubExtCounts(&node, items);

  if (node.unpromising) {
    // Expiries cannot unblock: a blocker occurs in every record containing I,
    // including the expiring one, so the equality count == support survives.
    return false;
  }

  if (HasUnpromisingBlocker(node)) {
    node.unpromising = true;
    FreeChildren(idx);
    return false;
  }

  for (Item j : node.Above(items)) {
    const size_t pos = node.FindChild(j);
    if (pos == CetNode::npos) continue;
    const uint32_t child_idx = node.children[pos].node;
    if (UpdateDelete(child_idx, items)) {
      // The child fell below C; its count stays in this node only.
      FreeChildren(child_idx);
      FreeNode(child_idx);
      node.children.erase(node.children.begin() + static_cast<ptrdiff_t>(pos));
    }
  }
  return false;
}

template <typename Fn>
void MomentMiner::VisitTree(uint32_t idx, const Fn& fn) const {
  const CetNode& node = N(idx);
  fn(node);
  for (const CetNode::ChildEntry& entry : node.children) {
    VisitTree(entry.node, fn);
  }
}

MiningOutput MomentMiner::GetClosedFrequent() const {
  MiningOutput output(min_support_);
  VisitTree(kRoot, [&](const CetNode& node) {
    if (!node.is_root() && !node.unpromising && IsClosed(node)) {
      output.Add(node.itemset, node.support);
    }
  });
  output.Seal();
  return output;
}

MiningOutput MomentMiner::GetAllFrequent() const {
  // Pre-order is canonical order, so every stored node emits itself in place.
  // The frequent itemsets the tree does not store are the U ∪ J below an
  // unpromising node U, with every item of J above max(U). Let b be U's
  // blocker: T(U ∪ J) = T(U ∪ {b} ∪ J), and U ∪ {b} ∪ J sorts before U, so
  // those itemsets are already emitted, as the run that extends U ∪ {b}. U's
  // subtree is that run with b dropped, in the same order (DESIGN.md §9).
  MiningOutput output(min_support_);
  const std::vector<FrequentItemset>& emitted = output.itemsets();
  Itemset blocked;  // U ∪ {b}
  VisitTree(kRoot, [&](const CetNode& node) {
    if (node.is_root()) return;
    output.Add(node.itemset, node.support);
    if (!node.unpromising) return;
    const Item b = Blocker(node);
    blocked.AssignWith(node.itemset, b);
    const auto at = std::lower_bound(
        emitted.begin(), emitted.end(), blocked,
        [](const FrequentItemset& f, const Itemset& key) {
          return f.itemset < key;
        });
    // U ∪ {b} has U's support, so it is frequent and was emitted; Validate()
    // reports a tree that breaks this, and the walk then copies nothing.
    if (at == emitted.end() || at->itemset != blocked) return;
    const auto extends_blocked = [&](const Itemset& s) {
      return s.size() > blocked.size() &&
             std::equal(blocked.begin(), blocked.end(), s.begin());
    };
    const size_t first = static_cast<size_t>(at - emitted.begin()) + 1;
    size_t last = first;
    while (last < emitted.size() && extends_blocked(emitted[last].itemset)) {
      ++last;
    }
    // By index: each Add may reallocate the entries being copied.
    for (size_t k = first; k < last; ++k) {
      output.Add(emitted[k].itemset.Without(b), emitted[k].support);
    }
  });
  output.Seal();  // emitted in canonical order: Seal() only checks it
  return output;
}

std::optional<Support> MomentMiner::SupportOf(const Itemset& itemset) const {
  if (itemset.empty()) {
    // Every record contains ∅, closed or not.
    const auto window_size = static_cast<Support>(window_.size());
    if (window_size < min_support_) return std::nullopt;
    return window_size;
  }
  std::optional<Support> best;
  VisitTree(kRoot, [&](const CetNode& node) {
    if (node.is_root() || node.unpromising) return;
    if (node.itemset.ContainsAll(itemset) && IsClosed(node) &&
        (!best || node.support > *best)) {
      best = node.support;
    }
  });
  return best;
}

Status MomentMiner::Validate() const {
  Status index_status = index_.Validate(window_);
  if (!index_status.ok()) return index_status;

  // F, recounted from the window rather than read from the index.
  std::map<Item, Support> item_support;
  for (const Transaction& t : window_.transactions()) {
    for (Item j : t.items) ++item_support[j];
  }

  size_t reachable = 0;
  Status failure = Status::OK();
  VisitTree(kRoot, [&](const CetNode& node) {
    ++reachable;
    if (!failure.ok()) return;
    auto fail = [&](const std::string& what) {
      failure = Status::Internal(node.itemset.ToString() + ": " + what);
    };

    // Recount the node's support and its extension counts over F.
    Support support = 0;
    std::map<Item, Support> ext_counts;
    for (const Transaction& t : window_.transactions()) {
      if (!t.items.ContainsAll(node.itemset)) continue;
      ++support;
      for (Item j : t.items) {
        if (!node.itemset.Contains(j) && item_support[j] >= min_support_) {
          ++ext_counts[j];
        }
      }
    }
    if (node.support != support) {
      return fail("stored support " + std::to_string(node.support) +
                  " != recounted " + std::to_string(support));
    }
    if (!node.is_root() && node.support < min_support_) {
      return fail("stored node below the threshold");
    }
    if (node.ext_counts.size() != ext_counts.size()) {
      return fail("stale extension counts");
    }
    size_t k = 0;
    for (const auto& [j, count] : ext_counts) {
      if (node.ext_counts[k].item != j || node.ext_counts[k].count != count) {
        return fail("stale extension counts");
      }
      ++k;
    }

    bool blocked = HasUnpromisingBlocker(node);
    if (node.unpromising != blocked) {
      return fail(blocked ? "promising node with a blocker"
                          : "unpromising node without a blocker");
    }
    if (node.unpromising) {
      if (!node.children.empty()) return fail("unpromising node with children");
      return;
    }

    // Children invariant.
    size_t frequent_children = 0;
    for (const auto& [j, count] : ext_counts) {
      if (!node.is_root() && j < node.branch_item) continue;
      if (count < min_support_) continue;
      ++frequent_children;
      const size_t pos = node.FindChild(j);
      if (pos == CetNode::npos) {
        return fail("missing child for item " + std::to_string(j));
      }
      if (N(node.children[pos].node).support != count) {
        return fail("child support mismatch for item " + std::to_string(j));
      }
    }
    if (node.children.size() != frequent_children) {
      return fail("child for an item counted fewer than C times");
    }
  });
  if (!failure.ok()) return failure;

  // Arena accounting: every pool slot is either reachable or on the free
  // list, with no overlap.
  if (reachable + free_.size() != arena_.size()) {
    return Status::Internal(
        "arena leak: " + std::to_string(reachable) + " reachable + " +
        std::to_string(free_.size()) + " free != pool of " +
        std::to_string(arena_.size()));
  }
  std::unordered_set<uint32_t> free_set(free_.begin(), free_.end());
  if (free_set.size() != free_.size()) {
    return Status::Internal("arena free list holds duplicates");
  }
  Status reuse_failure = Status::OK();
  VisitTree(kRoot, [&](const CetNode& node) {
    if (!reuse_failure.ok() || node.is_root()) return;
    const uint32_t idx =
        static_cast<uint32_t>(&node - arena_.data());
    if (free_set.count(idx)) {
      reuse_failure = Status::Internal("reachable node on the free list");
    }
  });
  return reuse_failure;
}

void MomentMiner::Checkpoint(persist::CheckpointWriter* writer) const {
  writer->Tag(kMinerTag);
  writer->I64(min_support_);
  window_.Checkpoint(writer);
}

Status MomentMiner::Restore(persist::CheckpointReader* reader) {
  if (Status s = reader->ExpectTag(kMinerTag, "moment miner"); !s.ok()) {
    return s;
  }
  const Support min_support = reader->I64();
  if (!reader->ok()) return reader->status();
  if (min_support != min_support_) {
    return Status::InvalidArgument(
        "checkpoint min_support " + std::to_string(min_support) +
        " does not match this engine's " + std::to_string(min_support_));
  }
  if (Status s = window_.Restore(reader); !s.ok()) return s;

  // The index and the tree are functions of the window and C: rebuild the
  // index at the live slots, then grow the tree from a bare root over the
  // whole window, as Explore grows any new node.
  index_.Rebuild(window_);
  arena_.clear();
  free_.clear();
  arena_.emplace_back();
  N(kRoot).support = static_cast<Support>(window_.size());
  index_.Tidset(Itemset{}, &ScratchAt(0));
  BuildExtCounts(kRoot, 0);
  ExpandFromCounts(kRoot, 0);
  return Status::OK();
}

MomentStats MomentMiner::Stats() const {
  MomentStats stats;
  Bitmap tidset;
  std::vector<Item> above;
  VisitTree(kRoot, [&](const CetNode& node) {
    if (node.unpromising) {
      ++stats.unpromising_gateway;
      return;
    }
    // The infrequent gateways below a promising node are the items above
    // its branch item that co-occur with it, less its (frequent) children.
    above.clear();
    index_.Tidset(node.itemset, &tidset);
    tidset.ForEachSetBit([&](size_t slot) {
      const std::span<const Item> record =
          node.Above(index_.transaction(slot)->items.items());
      above.insert(above.end(), record.begin(), record.end());
    });
    std::sort(above.begin(), above.end());
    const auto distinct = static_cast<size_t>(
        std::unique(above.begin(), above.end()) - above.begin());
    stats.infrequent_gateway += distinct - node.children.size();
    if (node.is_root()) return;
    if (IsClosed(node)) {
      ++stats.closed;
    } else {
      ++stats.intermediate;
    }
  });
  return stats;
}

MomentArenaStats MomentMiner::arena_stats() const {
  MomentArenaStats stats;
  stats.capacity = arena_.size();
  stats.free_list = free_.size();
  stats.live = arena_.size() - free_.size();
  return stats;
}

}  // namespace butterfly
