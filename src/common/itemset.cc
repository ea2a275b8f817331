#include "common/itemset.h"

#include <cassert>
#include <sstream>

namespace butterfly {

template <typename Write>
Itemset Itemset::Build(size_t bound, const Write& write) {
  Itemset s;
  Item* first = s.Reset(bound);
  s.size_ = static_cast<uint32_t>(write(first) - first);
  return s;
}

Itemset::Itemset(std::span<const Item> items) {
  Item* first = Reset(items.size());
  Item* last = std::copy(items.begin(), items.end(), first);
  std::sort(first, last);
  size_ = static_cast<uint32_t>(std::unique(first, last) - first);
}

Itemset Itemset::FromSorted(std::span<const Item> sorted_items) {
  assert(std::is_sorted(sorted_items.begin(), sorted_items.end()));
  assert(std::adjacent_find(sorted_items.begin(), sorted_items.end()) ==
         sorted_items.end());
  return Build(sorted_items.size(), [&](Item* out) {
    return std::copy(sorted_items.begin(), sorted_items.end(), out);
  });
}

Item* Itemset::Reset(size_t n) {
  if (n > capacity_) {
    Item* grown = new Item[n];  // before the delete: new may throw
    if (on_heap()) delete[] heap_;
    heap_ = grown;
    capacity_ = static_cast<uint32_t>(n);
  }
  size_ = static_cast<uint32_t>(n);
  return on_heap() ? heap_ : inline_;
}

bool Itemset::Contains(Item item) const {
  return std::binary_search(begin(), end(), item);
}

bool Itemset::ContainsAll(const Itemset& other) const {
  return std::includes(begin(), end(), other.begin(), other.end());
}

bool Itemset::DisjointWith(const Itemset& other) const {
  const Item* a = begin();
  const Item* b = other.begin();
  while (a != end() && b != other.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return false;
    }
  }
  return true;
}

Itemset Itemset::Union(const Itemset& other) const {
  return Build(size_ + other.size_, [&](Item* out) {
    return std::set_union(begin(), end(), other.begin(), other.end(), out);
  });
}

Itemset Itemset::With(Item item) const { return Union(Itemset{item}); }

void Itemset::AssignWith(const Itemset& base, Item item) {
  assert(&base != this);
  const Item* split = std::lower_bound(base.begin(), base.end(), item);
  const bool present = split != base.end() && *split == item;
  Item* out = Reset(base.size_ + (present ? 0 : 1));
  out = std::copy(base.begin(), split, out);
  if (!present) *out++ = item;
  std::copy(split, base.end(), out);
}

Itemset Itemset::Minus(const Itemset& other) const {
  return Build(size_, [&](Item* out) {
    return std::set_difference(begin(), end(), other.begin(), other.end(),
                               out);
  });
}

Itemset Itemset::Without(Item item) const {
  return Build(size_, [&](Item* out) {
    return std::remove_copy(begin(), end(), out, item);
  });
}

Itemset Itemset::Intersect(const Itemset& other) const {
  return Build(std::min(size_, other.size_), [&](Item* out) {
    return std::set_intersection(begin(), end(), other.begin(), other.end(),
                                 out);
  });
}

std::string Itemset::ToString() const {
  std::ostringstream out;
  out << '{';
  for (size_t i = 0; i < size_; ++i) {
    if (i > 0) out << ", ";
    out << data()[i];
  }
  out << '}';
  return out.str();
}

size_t Itemset::Hash() const {
  // FNV-1a over the item bytes.
  size_t h = 1469598103934665603ull;
  for (Item item : items()) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= static_cast<size_t>((item >> shift) & 0xff);
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace butterfly
