#include "common/bitmap_kernels.h"

#include "common/bits.h"

namespace butterfly {

size_t AndWordsPopcount(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                        size_t n) {
  size_t count = 0;
  for (size_t w = 0; w < n; ++w) {
    dst[w] = a[w] & b[w];
    count += static_cast<size_t>(PopCount(dst[w]));
  }
  return count;
}

size_t PopcountWords(const uint64_t* words, size_t n) {
  size_t count = 0;
  for (size_t w = 0; w < n; ++w) {
    count += static_cast<size_t>(PopCount(words[w]));
  }
  return count;
}

void CopyWords(uint64_t* dst, const uint64_t* src, size_t n) {
  if (dst == src) return;
  for (size_t w = 0; w < n; ++w) dst[w] = src[w];
}

size_t AndBitmapArrayPopcount(uint64_t* out, size_t out_words,
                              const uint64_t* base, const uint16_t* slots,
                              size_t n) {
  for (size_t w = 0; w < out_words; ++w) out[w] = 0;
  size_t count = 0;
  // Gather word-at-a-time: consecutive slots sharing a 64-bit word build its
  // member mask once, AND it against the base word, and emit one popcount —
  // O(cardinality) total, with one base-word load per touched word.
  size_t i = 0;
  while (i < n) {
    const size_t word = static_cast<size_t>(slots[i]) >> 6;
    uint64_t mask = 0;
    do {
      mask |= uint64_t{1} << (slots[i] & 63);
      ++i;
    } while (i < n && (static_cast<size_t>(slots[i]) >> 6) == word);
    const uint64_t hit = base[word] & mask;
    out[word] = hit;
    count += static_cast<size_t>(PopCount(hit));
  }
  return count;
}

size_t AndBitmapArrayInplace(uint64_t* base, size_t words,
                             const uint16_t* slots, size_t n) {
  size_t count = 0;
  size_t i = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t mask = 0;
    while (i < n && (static_cast<size_t>(slots[i]) >> 6) == w) {
      mask |= uint64_t{1} << (slots[i] & 63);
      ++i;
    }
    base[w] &= mask;
    count += static_cast<size_t>(PopCount(base[w]));
  }
  return count;
}

}  // namespace butterfly
