#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace phoenix {

/// 128-bit content digest. Stable across platforms and processes for the
/// same input stream, which is what makes it usable as an on-disk
/// content-address (the compile cache persists entries under the digest's
/// hex). Not cryptographic: collision resistance is of the
/// mix-twice-and-cross-feed variety, ample for content addressing a compile
/// cache but no defense against adversarial inputs.
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest128&) const = default;

  /// 32 lowercase hex characters, hi word first.
  std::string hex() const;
  /// Parse the `hex()` form; nullopt on malformed input.
  static std::optional<Digest128> from_hex(const std::string& s);
};

struct Digest128Hash {
  std::size_t operator()(const Digest128& d) const {
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental 128-bit hasher: two 64-bit SplitMix-style lanes with
/// cross-feeding, finalized with the absorbed-word count so streams that
/// differ only by trailing zero words digest differently.
///
/// All inputs are absorbed as explicit 64-bit words (doubles via their IEEE
/// bit pattern, byte buffers as little-endian-assembled chunks), so a digest
/// never depends on host endianness or struct layout.
class Hash128 {
 public:
  explicit Hash128(std::uint64_t seed = 0);

  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_size(std::size_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_bool(bool v) { write_u64(v ? 1 : 0); }
  /// IEEE-754 bit pattern; distinguishes +0.0 from -0.0 by design (an
  /// exactly-zero coefficient should have been dropped upstream). Every NaN
  /// hashes as the quiet NaN 0x7ff8000000000000: which payload survives NaN
  /// arithmetic depends on operand order, which the optimizer may change.
  void write_double(double v);
  /// Length-prefixed, so consecutive buffers cannot alias each other.
  void write_bytes(const void* data, std::size_t len);
  void write_string(const std::string& s) { write_bytes(s.data(), s.size()); }

  /// Digest of everything written so far (does not reset the hasher).
  Digest128 digest() const;

 private:
  std::uint64_t s0_ = 0;
  std::uint64_t s1_ = 0;
  std::uint64_t count_ = 0;
};

}  // namespace phoenix
