#include "core/republish_cache.h"

#include <algorithm>
#include <utility>

#include "persist/serializer.h"

namespace butterfly {

namespace {
constexpr uint32_t kCacheTag = persist::SectionTag('R', 'P', 'U', 'B');

// Visits two disjoint runs, each sorted by itemset, in itemset order.
template <typename Run, typename Fn>
void MergeRuns(Run& a, Run& b, const Fn& fn) {
  auto x = a.begin();
  auto y = b.begin();
  while (x != a.end() || y != b.end()) {
    if (x == a.end() || (y != b.end() && y->itemset < x->itemset)) {
      fn(*y++);
    } else {
      fn(*x++);
    }
  }
}

constexpr auto kBelow = [](const auto& slot, const Itemset& itemset) {
  return slot.itemset < itemset;
};
}  // namespace

RepublishCache::Slot* RepublishCache::Find(const Itemset& itemset) {
  // In a release the key is most often the one at the cursor (a store after
  // its lookup) or the next one.
  const size_t n = run_.size();
  for (size_t i = cursor_; i < n && i < cursor_ + 2; ++i) {
    if (run_[i].itemset == itemset) return &run_[cursor_ = i];
  }
  // Else gallop forward from the cursor, or binary-search below it for a
  // key that sorts before the slot under it.
  size_t lo = std::min(cursor_, n);
  size_t hi = lo;
  if (lo > 0 && !(run_[lo - 1].itemset < itemset)) {
    hi = lo - 1;
    lo = 0;
  }
  for (size_t step = 1; hi < n && run_[hi].itemset < itemset; step *= 2) {
    lo = hi + 1;
    hi = std::min(hi + step, n);
  }
  const Slot* base = run_.data();
  cursor_ = static_cast<size_t>(
      std::lower_bound(base + lo, base + hi, itemset, kBelow) - base);
  if (cursor_ < n && run_[cursor_].itemset == itemset) return &run_[cursor_];
  // fresh_ is sorted, and in canonical order it holds only smaller keys.
  if (fresh_.empty() || fresh_.back().itemset < itemset) return nullptr;
  auto it = std::lower_bound(fresh_.begin(), fresh_.end(), itemset, kBelow);
  return it != fresh_.end() && it->itemset == itemset ? &*it : nullptr;
}

std::optional<RepublishCache::Entry> RepublishCache::Lookup(
    const Itemset& itemset, Support true_support) {
  Slot* slot = Find(itemset);
  if (slot == nullptr || slot->entry.true_support != true_support) {
    return std::nullopt;
  }
  slot->last_seen = epoch_;
  return slot->entry;
}

void RepublishCache::Store(const Itemset& itemset, const Entry& entry) {
  Slot* slot = Find(itemset);
  if (slot == nullptr) {
    auto at = std::lower_bound(fresh_.begin(), fresh_.end(), itemset, kBelow);
    slot = &*fresh_.insert(at, Slot{itemset, entry, epoch_});
  }
  slot->entry = entry;
  slot->last_seen = epoch_;
}

void RepublishCache::NextEpoch() {
  ++epoch_;
  const uint64_t cutoff =
      epoch_ < max_idle_epochs_ ? 0 : epoch_ - max_idle_epochs_;
  const auto idle = [cutoff](const Slot& s) { return s.last_seen < cutoff; };
  // A key stored in the epoch that just ended is idle only at budget 0.
  std::erase_if(run_, idle);
  std::erase_if(fresh_, idle);
  // Merge the new keys in from the back: slots below the first one stay put.
  size_t read = run_.size();
  run_.resize(read + fresh_.size());
  size_t write = run_.size();
  for (size_t f = fresh_.size(); f > 0;) {
    if (read > 0 && fresh_[f - 1].itemset < run_[read - 1].itemset) {
      run_[--write] = std::move(run_[--read]);
    } else {
      run_[--write] = std::move(fresh_[--f]);
    }
  }
  fresh_.clear();
}

void RepublishCache::Checkpoint(persist::CheckpointWriter* writer) const {
  writer->Tag(kCacheTag);
  writer->U64(epoch_);
  writer->U64(size());
  MergeRuns(run_, fresh_, [writer](const Slot& s) {
    writer->WriteItemset(s.itemset);
    writer->I64(s.entry.true_support);
    writer->I64(s.entry.sanitized_support);
    writer->F64(s.entry.bias);
    writer->F64(s.entry.variance);
    writer->U64(s.last_seen);
  });
}

Status RepublishCache::Restore(persist::CheckpointReader* reader) {
  if (Status s = reader->ExpectTag(kCacheTag, "republish cache"); !s.ok()) {
    return s;
  }
  const uint64_t epoch = reader->U64();
  const uint64_t count = reader->ReadCount(48, "republish entries");
  if (!reader->ok()) return reader->status();
  std::vector<Slot> run(count);
  for (Slot& slot : run) {
    if (Status s = reader->ReadItemset(&slot.itemset); !s.ok()) return s;
    slot.entry.true_support = reader->I64();
    slot.entry.sanitized_support = reader->I64();
    slot.entry.bias = reader->F64();
    slot.entry.variance = reader->F64();
    slot.last_seen = reader->U64();
    if (!reader->ok()) return reader->status();
  }
  std::sort(run.begin(), run.end(), [](const Slot& a, const Slot& b) {
    return a.itemset < b.itemset;
  });
  if (std::adjacent_find(run.begin(), run.end(),
                         [](const Slot& a, const Slot& b) {
                           return a.itemset == b.itemset;
                         }) != run.end()) {
    return reader->Fail("checkpoint corrupt: duplicate republish entry");
  }
  epoch_ = epoch;
  run_ = std::move(run);
  fresh_.clear();
  return Status::OK();
}

}  // namespace butterfly
