#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace phoenix {

/// Little-endian fixed-width integers, assembled with shifts so the byte
/// order never depends on the host: the wire frame header and the Submit
/// payload (service/protocol.cpp), the binary CompileResult encoding
/// (phoenix/serialize.cpp) and the disk cache's entry trailer
/// (service/cache.cpp) all write and read them this way.

inline void put_u16(std::string& out, std::uint16_t v) {
  out += static_cast<char>(v & 0xff);
  out += static_cast<char>((v >> 8) & 0xff);
}

inline void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// put_u64's 8 bytes written over `at[0..8)` in place: the bind path's
/// rewrite of an angle inside an encoded result.
inline void store_u64(char* at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i, v >>= 8) at[i] = static_cast<char>(v & 0xff);
}

inline std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Unsigned LEB128: seven bits per byte, low group first, at most 10 bytes.
/// The variable-width integers of both binary payloads (CompileResult and
/// the Submit request).
inline void put_varint(std::string& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out += static_cast<char>((v & 0x7f) | 0x80);
  out += static_cast<char>(v);
}

/// Bounds-checked cursor over one encoded payload, shared by the binary
/// decoders. Every failure throws Error(Stage::Parse) with a detail that
/// starts with the decoder's name: truncation, a varint over 10 bytes or
/// 64 bits, or an element count that the bytes left cannot hold. Counts are
/// read through count() before anything is reserved, so hostile input never
/// triggers a large allocation.
class ByteReader {
 public:
  ByteReader(const std::string& bytes, const char* decoder)
      : p_(reinterpret_cast<const unsigned char*>(bytes.data())),
        end_(p_ + bytes.size()),
        decoder_(decoder) {}

  std::size_t left() const { return static_cast<std::size_t>(end_ - p_); }

  [[noreturn]] void fail(const std::string& detail) const {
    throw Error(Stage::Parse, std::string(decoder_) + ": " + detail);
  }

  /// The next `n` bytes, in place.
  const unsigned char* take(std::size_t n, const char* what) {
    if (left() < n) fail(std::string("truncated input, wanted ") + what);
    const unsigned char* at = p_;
    p_ += n;
    return at;
  }
  unsigned byte(const char* what) { return *take(1, what); }
  /// At most 10 bytes, and the tenth may only carry bit 63.
  std::uint64_t varint(const char* what) {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const unsigned b = byte(what);
      if (shift == 63 && b > 1)
        fail(std::string("varint longer than 64 bits for ") + what);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }
  std::size_t size(const char* what) {
    const std::uint64_t v = varint(what);
    if (v > std::numeric_limits<std::size_t>::max())
      fail(std::string("value out of range for ") + what);
    return static_cast<std::size_t>(v);
  }
  /// An element count, rejected when even `min_bytes` per element would run
  /// past the input: the check that precedes every reserve.
  std::size_t count(const char* what, std::size_t min_bytes) {
    const std::uint64_t n = varint(what);
    if (n > left() / min_bytes)
      fail(std::string(what) + " of " + std::to_string(n) +
           " exceeds the input left");
    return static_cast<std::size_t>(n);
  }
  /// An IEEE-754 bit pattern, so a round trip is bit-identical.
  double f64(const char* what) {
    return std::bit_cast<double>(get_u64(take(8, what)));
  }
  bool boolean(const char* what) {
    const unsigned b = byte(what);
    if (b > 1) fail(std::string("malformed bool for ") + what);
    return b == 1;
  }
  /// A varint length, then the raw bytes.
  std::string str(const char* what) {
    const std::size_t n = count(what, 1);
    return std::string(reinterpret_cast<const char*>(take(n, what)), n);
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
  const char* decoder_;
};

}  // namespace phoenix
