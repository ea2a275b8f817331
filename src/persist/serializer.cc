#include "persist/serializer.h"

#include <array>
#include <bit>
#include <vector>

#include "common/check.h"

namespace butterfly::persist {

namespace {

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: row 0 is
/// the byte-at-a-time table, and row k maps a byte to the CRC update of
/// that byte followed by k zero bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

/// Bytes p[0..3] as a little-endian word, read byte by byte so the host's
/// endianness cannot matter.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  const CrcTables& t = kCrcTables;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void CheckpointWriter::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void CheckpointWriter::Str(std::string_view s) {
  U64(s.size());
  buffer_.append(s.data(), s.size());
}

void CheckpointWriter::WriteItemset(const Itemset& s) {
  U64(s.size());
  for (Item item : s) U32(item);
}

const char* CheckpointReader::Take(size_t n, const char* what) {
  if (!status_.ok()) return nullptr;
  // Cursor invariant: pos_ never passes the end, so the subtraction below
  // cannot wrap — every advance happens here, after this bounds check.
  BFLY_DCHECK_MSG(pos_ <= data_.size(), "reader cursor past the payload");
  if (n > data_.size() - pos_) {
    Fail(std::string("checkpoint truncated reading ") + what);
    return nullptr;
  }
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

Status CheckpointReader::Fail(std::string message) {
  if (status_.ok()) status_ = Status::IOError(std::move(message));
  return status_;
}

uint8_t CheckpointReader::U8() {
  const char* p = Take(1, "u8");
  return p == nullptr ? 0 : static_cast<uint8_t>(*p);
}

uint32_t CheckpointReader::U32() {
  const char* p = Take(4, "u32");
  if (p == nullptr) return 0;
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint64_t CheckpointReader::U64() {
  const char* p = Take(8, "u64");
  if (p == nullptr) return 0;
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

double CheckpointReader::F64() { return std::bit_cast<double>(U64()); }

std::string CheckpointReader::Str() {
  // ReadCount guarantees the value fits in the remaining payload, so the
  // u64 -> size_t narrowing below cannot lose bits even on 32-bit targets.
  const size_t size = checked_cast<size_t>(ReadCount(1, "string"));
  const char* p = Take(size, "string bytes");
  return p == nullptr ? std::string() : std::string(p, size);
}

uint64_t CheckpointReader::ReadCount(uint64_t min_bytes_per_element,
                                     const char* what) {
  BFLY_CHECK_MSG(min_bytes_per_element > 0,
                 "ReadCount contract: min_bytes_per_element must be > 0");
  const uint64_t count = U64();
  if (!status_.ok()) return 0;
  if (count > remaining() / min_bytes_per_element) {
    Fail(std::string("checkpoint corrupt: implausible count for ") + what);
    return 0;
  }
  return count;
}

Status CheckpointReader::ReadItemset(Itemset* out) {
  const uint64_t count = ReadCount(4, "itemset");
  std::vector<Item> items;
  items.reserve(count);
  for (uint64_t i = 0; i < count && status_.ok(); ++i) {
    const Item item = U32();
    if (!items.empty() && item <= items.back()) {
      return Fail("checkpoint corrupt: itemset items not strictly ascending");
    }
    if (item == kInvalidItem) {
      return Fail("checkpoint corrupt: itemset holds the reserved item id");
    }
    items.push_back(item);
  }
  if (!status_.ok()) return status_;
  *out = Itemset::FromSorted(std::move(items));
  return Status::OK();
}

Status CheckpointReader::ExpectTag(uint32_t tag, const char* section) {
  const uint32_t got = U32();
  if (!status_.ok()) return status_;
  if (got != tag) {
    return Fail(std::string("checkpoint corrupt: bad section tag for ") +
                section);
  }
  return Status::OK();
}

}  // namespace butterfly::persist
