#include "stream/window_bitmap_index.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace butterfly {

WindowBitmapIndex::WindowBitmapIndex(size_t capacity, IndexRowStore store)
    : capacity_(capacity), store_(store) {
  BFLY_CHECK_MSG(capacity > 0, "window index needs at least one slot");
  if (store_ == IndexRowStore::kHybrid) {
    BFLY_CHECK_MSG(capacity <= kMaxHybridWindow,
                   "hybrid row store addresses slots with uint16");
  }
  slots_.resize(capacity, nullptr);
}

void WindowBitmapIndex::SetBit(Item item, size_t slot) {
  const uint32_t dense = remap_.Acquire(item);
  if (dense >= row_counts_.size()) {
    row_counts_.resize(dense + 1, 0);
    if (store_ == IndexRowStore::kDense) {
      rows_.resize(dense + 1);
    } else {
      hybrid_rows_.resize(dense + 1);
    }
  }
  if (store_ == IndexRowStore::kDense) {
    Bitmap& row = rows_[dense];
    if (row.size() != capacity_) row.Resize(capacity_);
    // Bit-flip protocol: an arrival may only claim a slot the eviction pass
    // already cleared — a set bit here means two live records share a slot.
    BFLY_DCHECK_MSG(!row.Test(slot), "arrival bit already set for this slot");
    row.Set(slot);
    ++row_counts_[dense];
    return;
  }
  TidContainer& row = hybrid_rows_[dense];
  if (row.slot_space() != capacity_) row.Init(capacity_);
  BFLY_DCHECK_MSG(!row.Test(slot), "arrival bit already set for this slot");
  row.Set(slot);
  ++row_counts_[dense];
}

void WindowBitmapIndex::ClearBit(Item item, size_t slot) {
  const uint32_t dense = remap_.Find(item);
  BFLY_DCHECK_MSG(dense != ItemRemap::kNone,
                  "evicted item has no dense mapping");
  BFLY_DCHECK_MSG(row_counts_[dense] > 0, "row popcount underflow");
  if (store_ == IndexRowStore::kDense) {
    // Bit-flip protocol: the evicted record's bit must still be set — a clear
    // bit means the index and the window disagree about slot occupancy.
    BFLY_DCHECK_MSG(rows_[dense].Test(slot), "eviction bit already cleared");
    rows_[dense].Clear(slot);
    if (--row_counts_[dense] == 0) {
      // The row is all-zero again; recycle the dense slot (the zeroed Bitmap
      // stays allocated and is reused verbatim by the next item mapped here).
      remap_.Release(item);
    }
    return;
  }
  TidContainer& row = hybrid_rows_[dense];
  BFLY_DCHECK_MSG(row.Test(slot), "eviction bit already cleared");
  row.Clear(slot);
  if (--row_counts_[dense] == 0) {
    // Row death: reset to the empty array container and recycle the dense
    // slot.
    row.Init(capacity_);
    remap_.Release(item);
  }
}

void WindowBitmapIndex::Apply(const Transaction* added,
                              const Transaction* evicted) {
  const size_t slot = next_slot_;
  BFLY_DCHECK(slot < capacity_);
  if (evicted != nullptr) {
    BFLY_DCHECK_MSG(size_ == capacity_,
                    "eviction from a window that is not full");
    for (Item item : evicted->items) ClearBit(item, slot);
  } else {
    BFLY_DCHECK_MSG(size_ < capacity_, "arrival into a full window");
    ++size_;
  }
  for (Item item : added->items) SetBit(item, slot);
  slots_[slot] = added;
  next_slot_ = (next_slot_ + 1) % capacity_;
}

void WindowBitmapIndex::Rebuild(const SlidingWindow& window) {
  BFLY_CHECK_MSG(window.capacity() == capacity_,
                 "index rebuilt from a window of another capacity");
  *this = WindowBitmapIndex(capacity_, store_);
  // The record at deque position p sits in slot (N - size + p) mod H, where
  // the live run's arrivals put it; replaying them as arrivals into a
  // filling window lays out the same slots.
  next_slot_ =
      static_cast<size_t>((window.stream_position() - window.size()) %
                          capacity_);
  for (const Transaction& t : window.transactions()) Apply(&t, nullptr);
}

const Bitmap* WindowBitmapIndex::Row(Item item) const {
  const uint32_t dense = remap_.Find(item);
  return dense == ItemRemap::kNone ? nullptr : &rows_[dense];
}

const TidContainer* WindowBitmapIndex::HybridRow(Item item) const {
  const uint32_t dense = remap_.Find(item);
  return dense == ItemRemap::kNone ? nullptr : &hybrid_rows_[dense];
}

Support WindowBitmapIndex::Tidset(const Itemset& itemset, Bitmap* out) const {
  out->Resize(capacity_);
  if (itemset.empty()) {
    // All in-scope slots. Once full that is every slot; during fill, slots
    // 0..size-1 (arrivals fill slots in order until the first wrap).
    out->SetFirst(size_);
    return static_cast<Support>(size_);
  }
  if (store_ == IndexRowStore::kHybrid) {
    const TidContainer* first = HybridRow(itemset[0]);
    if (first == nullptr) {
      out->ClearAll();
      return 0;
    }
    first->ToBitmap(out);
    size_t count = first->cardinality();
    for (size_t i = 1; i < itemset.size() && count > 0; ++i) {
      const TidContainer* row = HybridRow(itemset[i]);
      if (row == nullptr) {
        out->ClearAll();
        return 0;
      }
      count = row->AndWith(out);
    }
    return static_cast<Support>(count);
  }
  const Bitmap* first = Row(itemset[0]);
  if (first == nullptr) {
    out->ClearAll();
    return 0;
  }
  if (itemset.size() == 1) {
    out->Assign(*first);
    return static_cast<Support>(out->Popcount());
  }
  const Bitmap* second = Row(itemset[1]);
  if (second == nullptr) {
    out->ClearAll();
    return 0;
  }
  size_t count = out->AssignAnd(*first, *second);
  for (size_t i = 2; i < itemset.size() && count > 0; ++i) {
    const Bitmap* row = Row(itemset[i]);
    if (row == nullptr) {
      out->ClearAll();
      return 0;
    }
    count = out->AndWith(*row);
  }
  return static_cast<Support>(count);
}

Support WindowBitmapIndex::Refine(const Bitmap& base, Item item,
                                  Bitmap* out) const {
  if (store_ == IndexRowStore::kHybrid) {
    const TidContainer* row = HybridRow(item);
    if (row == nullptr) {
      out->Resize(capacity_);
      out->ClearAll();
      return 0;
    }
    return static_cast<Support>(row->AndInto(base, out));
  }
  const Bitmap* row = Row(item);
  if (row == nullptr) {
    out->Resize(capacity_);
    out->ClearAll();
    return 0;
  }
  return static_cast<Support>(out->AssignAnd(base, *row));
}

Support WindowBitmapIndex::SupportOf(const Itemset& itemset) const {
  Bitmap scratch;
  return Tidset(itemset, &scratch);
}

IndexMemoryStats WindowBitmapIndex::MemoryStats() const {
  IndexMemoryStats stats;
  const size_t dense_row_bytes = Bitmap::WordsFor(capacity_) * 8;
  // A dense id is live exactly when its row has a set bit (ClearBit releases
  // the id with the row's last bit), so the row counts enumerate the live
  // rows without the remap's item order.
  for (uint32_t dense = 0; dense < row_counts_.size(); ++dense) {
    if (row_counts_[dense] == 0) continue;
    stats.dense_equivalent_bytes += dense_row_bytes;
    if (store_ == IndexRowStore::kDense) {
      stats.index_bytes += dense_row_bytes;
      ++stats.bitmap_rows;
      continue;
    }
    const TidContainer& row = hybrid_rows_[dense];
    stats.index_bytes += row.MemoryBytes();
    switch (row.kind()) {
      case TidContainer::Kind::kArray:
        ++stats.array_rows;
        break;
      case TidContainer::Kind::kBitmap:
        ++stats.bitmap_rows;
        break;
    }
  }
  return stats;
}

Status WindowBitmapIndex::Validate(const SlidingWindow& window) const {
  if (window.size() != size_) {
    return Status::Internal("index size disagrees with the window");
  }
  // Recount every item row from the window contents. The slot of the record
  // at deque position p is (stream_position - size + p) mod H.
  const size_t base = static_cast<size_t>(window.stream_position()) - size_;
  std::vector<std::pair<Item, Bitmap>> expected;
  size_t p = 0;
  for (const Transaction& t : window.transactions()) {
    const size_t slot = (base + p) % capacity_;
    if (slots_[slot] != &t) {
      return Status::Internal("slot " + std::to_string(slot) +
                              " does not point at its window record");
    }
    for (Item item : t.items) {
      Bitmap* row = nullptr;
      for (auto& [existing, bits] : expected) {
        if (existing == item) {
          row = &bits;
          break;
        }
      }
      if (row == nullptr) {
        expected.emplace_back(item, Bitmap(capacity_));
        row = &expected.back().second;
      }
      row->Set(slot);
    }
    ++p;
  }
  if (expected.size() != remap_.live()) {
    return Status::Internal("live row count disagrees with a recount");
  }
  for (const auto& [item, bits] : expected) {
    const uint32_t dense = remap_.Find(item);
    if (dense == ItemRemap::kNone) {
      return Status::Internal("missing row for item " + std::to_string(item));
    }
    if (store_ == IndexRowStore::kDense) {
      if (!(rows_[dense] == bits)) {
        return Status::Internal("row for item " + std::to_string(item) +
                                " disagrees with a recount");
      }
    } else {
      const TidContainer& row = hybrid_rows_[dense];
      if (!row.SameSetAs(bits)) {
        return Status::Internal("hybrid row for item " +
                                std::to_string(item) +
                                " disagrees with a recount");
      }
      if (row.kind() !=
          TidContainer::ChooseKind(row.cardinality(), capacity_)) {
        return Status::Internal("hybrid row for item " +
                                std::to_string(item) +
                                " is not in the form its cardinality picks");
      }
    }
    if (row_counts_[dense] != bits.Popcount()) {
      return Status::Internal("stale popcount for item " +
                              std::to_string(item));
    }
  }
  return Status::OK();
}

}  // namespace butterfly
