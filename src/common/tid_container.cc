#include "common/tid_container.h"

#include <algorithm>
#include <utility>

namespace butterfly {

namespace {

/// Trigger for leaving the run representation: the run list stopped being
/// cheaper than the array (8R > 2C), with slack so a boundary row does not
/// convert back and forth on every mutation.
bool RunListTooExpensive(size_t runs, size_t cardinality) {
  return 8 * runs > 2 * cardinality + 16;
}

}  // namespace

void TidContainer::Init(size_t h) {
  BFLY_CHECK_MSG(h <= 65536, "hybrid containers address slots with uint16");
  h_ = h;
  kind_ = Kind::kArray;
  cardinality_ = 0;
  pinned_ = false;
  slots_.clear();
  runs_.clear();
}

void TidContainer::Pin() {
  pinned_ = true;
  if (kind_ != Kind::kBitmap) ConvertTo(Kind::kBitmap);
}

void TidContainer::Unpin() {
  if (!pinned_) return;
  pinned_ = false;
  Reconsider();
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
      ++cardinality_;
      // Re-evaluate when the array outgrows its limit, and at power-of-two
      // cardinalities >= 64 so a bursty row gets run-scanned occasionally
      // without paying a scan per mutation.
      if (cardinality_ > ArrayLimit(h_) ||
          (cardinality_ >= 64 && (cardinality_ & (cardinality_ - 1)) == 0)) {
        Reconsider();
      }
      break;
    }
    case Kind::kBitmap:
      BFLY_DCHECK_MSG(!bitmap_.Test(slot), "Set of an already-set slot");
      bitmap_.Set(slot);
      ++cardinality_;
      break;
    case Kind::kRun: {
      const uint32_t s = static_cast<uint32_t>(slot);
      auto it = std::upper_bound(
          runs_.begin(), runs_.end(), s,
          [](uint32_t v, const TidRun& r) { return v < r.start; });
      bool placed = false;
      if (it != runs_.begin()) {
        TidRun& prev = *(it - 1);
        const uint32_t prev_end = prev.start + prev.length;
        BFLY_DCHECK_MSG(s >= prev_end, "Set of an already-set slot");
        if (s == prev_end) {
          ++prev.length;
          // The extended run may now touch the next one; merge them.
          if (it != runs_.end() && it->start == s + 1) {
            prev.length += it->length;
            runs_.erase(it);
          }
          placed = true;
        }
      }
      if (!placed) {
        if (it != runs_.end() && it->start == s + 1) {
          it->start = s;
          ++it->length;
        } else {
          runs_.insert(it, TidRun{s, 1});
        }
      }
      ++cardinality_;
      if (RunListTooExpensive(runs_.size(), cardinality_)) Reconsider();
      break;
    }
  }
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
      --cardinality_;
      break;
    }
    case Kind::kBitmap:
      BFLY_DCHECK_MSG(bitmap_.Test(slot), "Clear of an unset slot");
      bitmap_.Clear(slot);
      --cardinality_;
      if (!pinned_ && cardinality_ < ArrayLimit(h_) / 2) Reconsider();
      break;
    case Kind::kRun: {
      const uint32_t s = static_cast<uint32_t>(slot);
      auto it = std::upper_bound(
          runs_.begin(), runs_.end(), s,
          [](uint32_t v, const TidRun& r) { return v < r.start; });
      BFLY_DCHECK_MSG(it != runs_.begin(), "Clear of an unset slot");
      TidRun& run = *(it - 1);
      const uint32_t end = run.start + run.length;
      BFLY_DCHECK_MSG(s < end, "Clear of an unset slot");
      if (run.length == 1) {
        runs_.erase(it - 1);
      } else if (s == run.start) {
        ++run.start;
        --run.length;
      } else if (s == end - 1) {
        --run.length;
      } else {
        // Interior clear splits the run in two.
        const TidRun upper{s + 1, end - (s + 1)};
        run.length = s - run.start;
        runs_.insert(it, upper);
      }
      --cardinality_;
      if (RunListTooExpensive(runs_.size(), cardinality_)) Reconsider();
      break;
    }
  }
}

bool TidContainer::Test(size_t slot) const {
  BFLY_DCHECK_MSG(slot < h_, "slot out of range");
  switch (kind_) {
    case Kind::kArray: {
      const uint16_t s = static_cast<uint16_t>(slot);
      return std::binary_search(slots_.begin(), slots_.end(), s);
    }
    case Kind::kBitmap:
      return bitmap_.Test(slot);
    case Kind::kRun: {
      const uint32_t s = static_cast<uint32_t>(slot);
      auto it = std::upper_bound(
          runs_.begin(), runs_.end(), s,
          [](uint32_t v, const TidRun& r) { return v < r.start; });
      if (it == runs_.begin()) return false;
      const TidRun& run = *(it - 1);
      return s < run.start + run.length;
    }
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
    case Kind::kRun:
      return AndBitmapRunsPopcount(out->mutable_words(), words,
                                   base.words().data(), runs_.data(),
                                   runs_.size());
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
    case Kind::kRun:
      return AndBitmapRunsInplace(base->mutable_words(), words, runs_.data(),
                                  runs_.size());
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
    case Kind::kRun:
      return 8 * runs_.size();
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
  if (pinned_) {
    if (kind_ != Kind::kBitmap) ConvertTo(Kind::kBitmap);
    return;
  }
  const Kind target = ChooseKind(cardinality_, CountRuns(), h_);
  if (target != kind_) ConvertTo(target);
}

void TidContainer::ConvertTo(Kind target) {
  // Materialize the members in ascending order, then rebuild. Conversion is
  // O(cardinality + words) and happens only at threshold crossings, so the
  // cost amortizes over the mutations that moved the cardinality there.
  std::vector<uint16_t> members;
  members.reserve(cardinality_);
  ForEachSlot([&members](size_t slot) {
    members.push_back(static_cast<uint16_t>(slot));
  });
  slots_.clear();
  runs_.clear();
  switch (target) {
    case Kind::kArray:
      slots_ = std::move(members);
      break;
    case Kind::kBitmap:
      bitmap_.Resize(h_);
      bitmap_.ClearAll();
      for (uint16_t s : members) bitmap_.Set(s);
      break;
    case Kind::kRun:
      for (uint16_t s : members) {
        if (!runs_.empty() &&
            runs_.back().start + runs_.back().length == uint32_t{s}) {
          ++runs_.back().length;
        } else {
          runs_.push_back(TidRun{s, 1});
        }
      }
      break;
  }
  kind_ = target;
}

size_t TidContainer::CountRuns() const {
  if (kind_ == Kind::kRun) return runs_.size();
  size_t runs = 0;
  size_t prev = static_cast<size_t>(-2);
  ForEachSlot([&](size_t slot) {
    if (slot != prev + 1) ++runs;
    prev = slot;
  });
  return runs;
}

}  // namespace butterfly
