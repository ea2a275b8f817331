#include "core/republish_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "persist/serializer.h"

namespace butterfly {

namespace {
constexpr uint32_t kCacheTag = persist::SectionTag('R', 'P', 'U', 'B');
}  // namespace

std::optional<RepublishCache::Entry> RepublishCache::Lookup(
    const Itemset& itemset, Support true_support) {
  auto it = entries_.find(itemset);
  if (it == entries_.end()) return std::nullopt;
  if (it->second.entry.true_support != true_support) return std::nullopt;
  it->second.last_seen = epoch_;
  return it->second.entry;
}

void RepublishCache::Store(const Itemset& itemset, const Entry& entry) {
  Slot& slot = entries_[itemset];
  slot.entry = entry;
  slot.last_seen = epoch_;
}

void RepublishCache::Checkpoint(persist::CheckpointWriter* writer) const {
  writer->Tag(kCacheTag);
  writer->U64(epoch_);
  std::vector<const std::pair<const Itemset, Slot>*> sorted;
  sorted.reserve(entries_.size());
  // bfly-lint: allow(unordered-iteration) materialized and sorted below
  for (const auto& kv : entries_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  writer->U64(sorted.size());
  for (const auto* kv : sorted) {
    writer->WriteItemset(kv->first);
    writer->I64(kv->second.entry.true_support);
    writer->I64(kv->second.entry.sanitized_support);
    writer->F64(kv->second.entry.bias);
    writer->F64(kv->second.entry.variance);
    writer->U64(kv->second.last_seen);
  }
}

Status RepublishCache::Restore(persist::CheckpointReader* reader) {
  if (Status s = reader->ExpectTag(kCacheTag, "republish cache"); !s.ok()) {
    return s;
  }
  const uint64_t epoch = reader->U64();
  const uint64_t count = reader->ReadCount(48, "republish entries");
  if (!reader->ok()) return reader->status();
  std::unordered_map<Itemset, Slot, ItemsetHash> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Itemset itemset;
    if (Status s = reader->ReadItemset(&itemset); !s.ok()) return s;
    Slot slot;
    slot.entry.true_support = reader->I64();
    slot.entry.sanitized_support = reader->I64();
    slot.entry.bias = reader->F64();
    slot.entry.variance = reader->F64();
    slot.last_seen = reader->U64();
    if (!reader->ok()) return reader->status();
    if (!entries.emplace(std::move(itemset), slot).second) {
      return reader->Fail("checkpoint corrupt: duplicate republish entry");
    }
  }
  epoch_ = epoch;
  entries_ = std::move(entries);
  return Status::OK();
}

void RepublishCache::NextEpoch() {
  ++epoch_;
  if (epoch_ < max_idle_epochs_) return;
  uint64_t cutoff = epoch_ - max_idle_epochs_;
  // bfly-lint: allow(unordered-iteration) erase-only idle sweep; which
  // entries survive depends on last_seen, not visit order, and no ordering
  // escapes this function.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.last_seen < cutoff) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace butterfly
