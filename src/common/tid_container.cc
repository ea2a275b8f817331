#include "common/tid_container.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/bitmap_kernels.h"

namespace butterfly {

void TidContainer::Init(size_t h) {
  BFLY_CHECK_MSG(h <= size_t{UINT16_MAX} + 1,
                 "hybrid containers address slots with uint16");
  h_ = h;
  kind_ = Kind::kArray;
  cardinality_ = 0;
  slots_.clear();
}

void TidContainer::Set(size_t slot) {
  BFLY_DCHECK_MSG(slot < h_, "slot out of range");
  switch (kind_) {
    case Kind::kArray: {
      const uint16_t s = static_cast<uint16_t>(slot);
      auto it = std::lower_bound(slots_.begin(), slots_.end(), s);
      BFLY_DCHECK_MSG(it == slots_.end() || *it != s,
                      "Set of an already-set slot");
      slots_.insert(it, s);
      break;
    }
    case Kind::kBitmap:
      BFLY_DCHECK_MSG(!bitmap_.Test(slot), "Set of an already-set slot");
      bitmap_.Set(slot);
      break;
  }
  ++cardinality_;
  Reconsider();
}

void TidContainer::Clear(size_t slot) {
  BFLY_DCHECK_MSG(slot < h_, "slot out of range");
  switch (kind_) {
    case Kind::kArray: {
      const uint16_t s = static_cast<uint16_t>(slot);
      auto it = std::lower_bound(slots_.begin(), slots_.end(), s);
      BFLY_DCHECK_MSG(it != slots_.end() && *it == s,
                      "Clear of an unset slot");
      slots_.erase(it);
      break;
    }
    case Kind::kBitmap:
      BFLY_DCHECK_MSG(bitmap_.Test(slot), "Clear of an unset slot");
      bitmap_.Clear(slot);
      break;
  }
  --cardinality_;
  Reconsider();
}

bool TidContainer::Test(size_t slot) const {
  BFLY_DCHECK_MSG(slot < h_, "slot out of range");
  switch (kind_) {
    case Kind::kArray:
      return std::binary_search(slots_.begin(), slots_.end(),
                                static_cast<uint16_t>(slot));
    case Kind::kBitmap:
      return bitmap_.Test(slot);
  }
  return false;
}

size_t TidContainer::AndInto(const Bitmap& base, Bitmap* out) const {
  BFLY_DCHECK_MSG(base.size() == h_, "base bitmap size mismatch");
  BFLY_DCHECK_MSG(&base != out, "AndInto must not alias base and out");
  out->Resize(h_);
  const size_t words = out->word_count();
  switch (kind_) {
    case Kind::kArray:
      return AndBitmapArrayPopcount(out->mutable_words(), words,
                                    base.words().data(), slots_.data(),
                                    slots_.size());
    case Kind::kBitmap:
      return AndWordsPopcount(out->mutable_words(), base.words().data(),
                              bitmap_.words().data(), words);
  }
  return 0;
}

size_t TidContainer::AndWith(Bitmap* base) const {
  BFLY_DCHECK_MSG(base->size() == h_, "base bitmap size mismatch");
  const size_t words = base->word_count();
  switch (kind_) {
    case Kind::kArray:
      return AndBitmapArrayInplace(base->mutable_words(), words,
                                   slots_.data(), slots_.size());
    case Kind::kBitmap:
      return AndWordsPopcount(base->mutable_words(), base->words().data(),
                              bitmap_.words().data(), words);
  }
  return 0;
}

void TidContainer::ToBitmap(Bitmap* out) const {
  if (kind_ == Kind::kBitmap) {
    out->Assign(bitmap_);
    return;
  }
  out->Resize(h_);
  out->ClearAll();
  ForEachSlot([out](size_t slot) { out->Set(slot); });
}

size_t TidContainer::MemoryBytes() const {
  switch (kind_) {
    case Kind::kArray:
      return 2 * slots_.size();
    case Kind::kBitmap:
      return 8 * bitmap_.word_count();
  }
  return 0;
}

bool TidContainer::SameSetAs(const Bitmap& dense) const {
  if (dense.size() != h_ || dense.Popcount() != cardinality_) return false;
  bool same = true;
  ForEachSlot([&](size_t slot) { same = same && dense.Test(slot); });
  return same;
}

void TidContainer::Reconsider() {
  const Kind target = ChooseKind(cardinality_, h_);
  if (target != kind_) ConvertTo(target);
}

void TidContainer::ConvertTo(Kind target) {
  // Materialize the members in ascending order, then rebuild. Conversion is
  // O(cardinality + words) and happens only when a mutation moves the
  // cardinality across ArrayLimit(H).
  std::vector<uint16_t> members;
  members.reserve(cardinality_);
  ForEachSlot([&members](size_t slot) {
    members.push_back(static_cast<uint16_t>(slot));
  });
  slots_.clear();
  switch (target) {
    case Kind::kArray:
      slots_ = std::move(members);
      break;
    case Kind::kBitmap:
      bitmap_.Resize(h_);
      bitmap_.ClearAll();
      for (uint16_t s : members) bitmap_.Set(s);
      break;
  }
  kind_ = target;
}

}  // namespace butterfly
