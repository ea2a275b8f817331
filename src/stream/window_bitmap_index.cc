#include "stream/window_bitmap_index.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "persist/serializer.h"

namespace butterfly {

namespace {
constexpr uint32_t kIndexTag = persist::SectionTag('B', 'I', 'D', 'X');

// Container tags in the BIDX v2 row encoding. Values match
// TidContainer::Kind and must never be renumbered (checkpoint format).
constexpr uint8_t kRowArray = 0;
constexpr uint8_t kRowBitmap = 1;
constexpr uint8_t kRowRun = 2;
}  // namespace

WindowBitmapIndex::WindowBitmapIndex(size_t capacity, IndexRowStore store)
    : capacity_(capacity),
      store_(store),
      pin_threshold_(std::max<size_t>(64, capacity / 8)) {
  BFLY_CHECK_MSG(capacity > 0, "window index needs at least one slot");
  if (store_ == IndexRowStore::kHybrid) {
    BFLY_CHECK_MSG(capacity <= 65536,
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
      pin_generations_.resize(dense + 1, 0);
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
  // A pin stamped under an earlier generation belongs to the item that held
  // this dense id before recycling; drop it before the row grows again.
  // (Row death resets the container, so this is a defensive consistency
  // guard — the generation stamp makes staleness detectable at all.)
  if (row.pinned() && pin_generations_[dense] != remap_.generation(dense)) {
    row.Unpin();
  }
  BFLY_DCHECK_MSG(!row.Test(slot), "arrival bit already set for this slot");
  row.Set(slot);
  ++row_counts_[dense];
  if (!row.pinned() && row_counts_[dense] >= pin_threshold_) {
    // Hot row: pin it on the dense representation for the rest of this
    // item's residency, stamped with the current remap generation.
    row.Pin();
    pin_generations_[dense] = remap_.generation(dense);
  }
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
    // Row death: reset to the empty array container (drops any pin) and
    // recycle the dense slot.
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
  // A dense id is live exactly when its row has a set bit (Restore rejects
  // live rows with none), so the row counts enumerate the live rows without
  // the remap's item order.
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
      case TidContainer::Kind::kRun:
        ++stats.run_rows;
        break;
    }
    if (row.pinned()) ++stats.pinned_rows;
  }
  return stats;
}

void WindowBitmapIndex::CheckpointRow(persist::CheckpointWriter* writer,
                                      uint32_t dense) const {
  if (store_ == IndexRowStore::kDense) {
    writer->U8(kRowBitmap);
    writer->Bool(false);  // dense rows carry no pin state
    writer->WriteBitmap(rows_[dense]);
    return;
  }
  const TidContainer& row = hybrid_rows_[dense];
  switch (row.kind()) {
    case TidContainer::Kind::kArray: {
      writer->U8(kRowArray);
      writer->Bool(row.pinned());
      const auto& slots = row.array_slots();
      writer->U64(slots.size());
      for (uint16_t s : slots) writer->U16(s);
      break;
    }
    case TidContainer::Kind::kBitmap:
      writer->U8(kRowBitmap);
      writer->Bool(row.pinned());
      writer->WriteBitmap(row.bitmap());
      break;
    case TidContainer::Kind::kRun: {
      writer->U8(kRowRun);
      writer->Bool(row.pinned());
      const auto& runs = row.run_list();
      writer->U64(runs.size());
      for (const TidRun& r : runs) {
        writer->U32(r.start);
        writer->U32(r.length);
      }
      break;
    }
  }
}

Status WindowBitmapIndex::RestoreRow(persist::CheckpointReader* reader,
                                     uint32_t dense, std::vector<Bitmap>* rows,
                                     std::vector<TidContainer>* hybrid_rows,
                                     uint32_t* row_count) {
  const uint8_t kind = reader->U8();
  const bool pinned = reader->Bool();
  if (!reader->ok()) return reader->status();
  if (store_ == IndexRowStore::kDense) {
    if (kind != kRowBitmap || pinned) {
      return reader->Fail(
          "checkpoint corrupt: dense index with a non-dense row encoding");
    }
    if (Status s = reader->ReadBitmap(&(*rows)[dense], capacity_); !s.ok()) {
      return s;
    }
    const size_t bits = (*rows)[dense].Popcount();
    if (bits == 0) {
      return reader->Fail("checkpoint corrupt: live item row with no bits");
    }
    *row_count = static_cast<uint32_t>(bits);
    return Status::OK();
  }
  TidContainer& row = (*hybrid_rows)[dense];
  switch (kind) {
    case kRowArray: {
      const uint64_t n = reader->ReadCount(2, "array container slots");
      if (!reader->ok()) return reader->status();
      std::vector<uint16_t> slots(n);
      for (uint64_t i = 0; i < n; ++i) {
        const uint16_t s = reader->U16();
        if (!reader->ok()) return reader->status();
        if (static_cast<size_t>(s) >= capacity_ ||
            (i > 0 && slots[i - 1] >= s)) {
          return reader->Fail(
              "checkpoint corrupt: array container slots invalid");
        }
        slots[i] = s;
      }
      row.RestoreArray(capacity_, std::move(slots));
      break;
    }
    case kRowBitmap: {
      Bitmap dense_bits;
      if (Status s = reader->ReadBitmap(&dense_bits, capacity_); !s.ok()) {
        return s;
      }
      row.RestoreBitmap(capacity_, dense_bits.words().data(),
                        dense_bits.word_count());
      break;
    }
    case kRowRun: {
      const uint64_t n = reader->ReadCount(8, "run container runs");
      if (!reader->ok()) return reader->status();
      std::vector<TidRun> runs(n);
      for (uint64_t i = 0; i < n; ++i) {
        runs[i].start = reader->U32();
        runs[i].length = reader->U32();
        if (!reader->ok()) return reader->status();
        if (runs[i].length == 0 ||
            static_cast<size_t>(runs[i].start) + runs[i].length > capacity_ ||
            (i > 0 &&
             runs[i - 1].start + runs[i - 1].length >= runs[i].start)) {
          return reader->Fail("checkpoint corrupt: run container invalid");
        }
      }
      row.RestoreRuns(capacity_, std::move(runs));
      break;
    }
    default:
      return reader->Fail("checkpoint corrupt: unknown container kind");
  }
  if (pinned) {
    if (kind != kRowBitmap) {
      return reader->Fail(
          "checkpoint corrupt: pinned row must be a bitmap container");
    }
    row.Pin();
  }
  if (row.cardinality() == 0) {
    return reader->Fail("checkpoint corrupt: live item row with no bits");
  }
  *row_count = static_cast<uint32_t>(row.cardinality());
  return Status::OK();
}

void WindowBitmapIndex::Checkpoint(persist::CheckpointWriter* writer) const {
  writer->Tag(kIndexTag);
  writer->U64(capacity_);
  writer->U64(size_);
  writer->U64(next_slot_);
  writer->U8(static_cast<uint8_t>(store_));
  writer->U32(static_cast<uint32_t>(remap_.dense_limit()));
  const std::vector<uint32_t>& free_ids = remap_.free_ids();
  writer->U64(free_ids.size());
  for (uint32_t id : free_ids) writer->U32(id);
  const auto mappings = remap_.SortedMappings();
  writer->U64(mappings.size());
  for (const auto& [item, dense] : mappings) {
    writer->U32(item);
    writer->U32(dense);
    CheckpointRow(writer, dense);
  }
}

Status WindowBitmapIndex::Restore(persist::CheckpointReader* reader,
                                  const SlidingWindow& window) {
  if (Status s = reader->ExpectTag(kIndexTag, "window bitmap index");
      !s.ok()) {
    return s;
  }
  const uint64_t capacity = reader->U64();
  const uint64_t size = reader->U64();
  const uint64_t next_slot = reader->U64();
  const uint8_t store = reader->U8();
  const uint32_t dense_limit = reader->U32();
  if (!reader->ok()) return reader->status();
  if (capacity != capacity_) {
    return Status::InvalidArgument("checkpoint index capacity mismatch");
  }
  if (store != static_cast<uint8_t>(store_)) {
    return Status::InvalidArgument(
        "checkpoint index row store disagrees with the configured one");
  }
  if (size != window.size() ||
      next_slot != window.stream_position() % capacity_) {
    return reader->Fail(
        "checkpoint corrupt: index cursor disagrees with the window");
  }

  // Live ids and recycled ids must partition [0, dense_limit) exactly.
  const uint64_t free_count = reader->ReadCount(4, "recycled dense ids");
  if (!reader->ok()) return reader->status();
  std::vector<uint32_t> free_ids(free_count);
  std::vector<uint8_t> seen(dense_limit, 0);
  for (uint64_t i = 0; i < free_count; ++i) {
    const uint32_t id = reader->U32();
    if (!reader->ok()) return reader->status();
    if (id >= dense_limit || seen[id]) {
      return reader->Fail("checkpoint corrupt: bad recycled dense id");
    }
    seen[id] = 1;
    free_ids[i] = id;
  }
  const uint64_t mapping_count = reader->ReadCount(12, "item rows");
  if (!reader->ok()) return reader->status();
  if (free_count + mapping_count != dense_limit) {
    return reader->Fail(
        "checkpoint corrupt: dense ids do not cover the dense range");
  }

  std::vector<std::pair<Item, uint32_t>> mappings(mapping_count);
  std::vector<Bitmap> rows;
  std::vector<TidContainer> hybrid_rows;
  if (store_ == IndexRowStore::kDense) {
    rows.resize(dense_limit);
  } else {
    hybrid_rows.resize(dense_limit);
  }
  std::vector<uint32_t> row_counts(dense_limit, 0);
  Item prev_item = 0;
  for (uint64_t i = 0; i < mapping_count; ++i) {
    const Item item = reader->U32();
    const uint32_t dense = reader->U32();
    if (!reader->ok()) return reader->status();
    if (i > 0 && item <= prev_item) {
      return reader->Fail("checkpoint corrupt: item rows out of order");
    }
    prev_item = item;
    if (dense >= dense_limit || seen[dense]) {
      return reader->Fail("checkpoint corrupt: bad live dense id");
    }
    seen[dense] = 1;
    if (Status s =
            RestoreRow(reader, dense, &rows, &hybrid_rows, &row_counts[dense]);
        !s.ok()) {
      return s;
    }
    mappings[i] = {item, dense};
  }

  remap_.RestoreState(mappings, std::move(free_ids), dense_limit);
  rows_ = std::move(rows);
  hybrid_rows_ = std::move(hybrid_rows);
  pin_generations_.assign(dense_limit, 0);
  row_counts_ = std::move(row_counts);
  size_ = size;
  next_slot_ = next_slot;

  // Rebind the per-slot record pointers: the record at deque position p
  // occupies slot (stream_position - size + p) mod H. Slots holding evicted
  // records carry stale pointers in a live index; nullptr is equivalent
  // (they are only read through set bits of current tidsets).
  slots_.assign(capacity_, nullptr);
  const size_t base = static_cast<size_t>(window.stream_position()) - size_;
  size_t p = 0;
  for (const Transaction& t : window.transactions()) {
    slots_[(base + p) % capacity_] = &t;
    ++p;
  }
  return Status::OK();
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
      if (row.pinned() &&
          (row.kind() != TidContainer::Kind::kBitmap ||
           pin_generations_[dense] != remap_.generation(dense))) {
        return Status::Internal("stale or non-dense pin for item " +
                                std::to_string(item));
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
