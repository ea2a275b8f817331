/// \file serializer.h
/// \brief Primitive binary (de)serialization for checkpoint payloads.
///
/// CheckpointWriter appends fixed-width little-endian primitives to an
/// in-memory buffer; CheckpointReader walks such a buffer with bounds checks
/// and a sticky Status — a corrupted or truncated payload surfaces as a
/// clean error, never as an assert or out-of-bounds read. Both sides agree
/// on the encoding of the repo's composite value type (Itemset), so every
/// stateful layer's Checkpoint/Restore pair is written against one
/// small vocabulary.
///
/// Determinism contract: a given logical state serializes to one exact byte
/// sequence (containers are written in a canonical order by their owners),
/// which is what lets the golden-snapshot test pin format stability.

#ifndef BUTTERFLY_PERSIST_SERIALIZER_H_
#define BUTTERFLY_PERSIST_SERIALIZER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/itemset.h"
#include "common/status.h"

namespace butterfly::persist {

/// CRC-32 (polynomial 0xEDB88320, the zlib/PNG one) of \p size bytes,
/// chainable via \p crc for incremental computation over split buffers.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

/// Builds a four-byte section tag ("WIND", "CETM", ...) as a u32. Tags head
/// every component section so a corrupt or misaligned payload fails with a
/// named section instead of nonsense field values.
constexpr uint32_t SectionTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// Appends little-endian primitives to an in-memory payload buffer.
class CheckpointWriter {
 public:
  void U8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe<4>(v); }
  void U64(uint64_t v) { AppendLe<8>(v); }
  void I64(int64_t v) { AppendLe<8>(static_cast<uint64_t>(v)); }
  /// Doubles round-trip bit-exactly (IEEE-754 image), which the bit-identical
  /// resume guarantee needs for biases and variances.
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Tag(uint32_t tag) { U32(tag); }
  /// Length-prefixed byte string.
  void Str(std::string_view s);

  /// u64 count + ascending items. The reader re-validates the ordering.
  void WriteItemset(const Itemset& s);

  const std::string& data() const { return buffer_; }
  size_t bytes() const { return buffer_.size(); }

 private:
  /// Appends the low \p Bytes bytes of \p v, least significant first. The
  /// image is built by shifts, so the host's byte order cannot matter, and
  /// appended in one call.
  template <size_t Bytes>
  void AppendLe(uint64_t v) {
    static_assert(Bytes > 0 && Bytes <= 8, "primitive width out of range");
    char image[Bytes];
    for (size_t i = 0; i < Bytes; ++i) {
      image[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
    buffer_.append(image, Bytes);
  }

  std::string buffer_;
};

/// Bounds-checked reader over a checkpoint payload. Every accessor returns a
/// neutral value (0 / empty) once an error has occurred and records the first
/// failure in status(); restore code can therefore read a whole section and
/// check once — but MUST validate any count it uses as a loop bound or
/// allocation size first (see ReadCount).
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();

  /// Reads a u64 element count and rejects it unless
  /// count * min_bytes_per_element fits in the remaining payload — the guard
  /// that keeps a corrupted length field from driving a huge allocation or an
  /// unbounded loop. \p min_bytes_per_element must be > 0.
  uint64_t ReadCount(uint64_t min_bytes_per_element, const char* what);

  /// Reads an itemset, failing unless the items are strictly ascending and
  /// none is kInvalidItem, which no stream record may hold.
  Status ReadItemset(Itemset* out);

  /// Consumes a section tag, failing if it does not match.
  Status ExpectTag(uint32_t tag, const char* section);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Records the first failure; subsequent reads are no-ops.
  Status Fail(std::string message);

 private:
  /// Takes \p n bytes, or fails and returns nullptr.
  const char* Take(size_t n, const char* what);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace butterfly::persist

#endif  // BUTTERFLY_PERSIST_SERIALIZER_H_
