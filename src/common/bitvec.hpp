#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace phoenix {

/// Dynamic fixed-width bit vector backed by 64-bit words.
///
/// Used throughout the binary-symplectic-form (BSF) machinery to represent
/// one X- or Z-block row of a Pauli tableau. All bitwise operations require
/// operands of identical width; widths are set at construction and never
/// change implicitly.
class BitVec {
 public:
  BitVec() = default;

  /// Construct an all-zero vector of `n` bits.
  explicit BitVec(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  /// Construct from a string of '0'/'1' characters, index 0 first.
  static BitVec from_string(const std::string& bits);

  /// Construct an `n`-bit vector from ceil(n/8) packed bytes: bit i is bit
  /// i%8 of byte i/8, so the bytes are the backing words in little-endian
  /// order. Bits of the last byte past `n` are dropped.
  static BitVec from_bytes(const unsigned char* bytes, std::size_t n);
  /// Append the ceil(size()/8) packed bytes that from_bytes reads.
  void append_bytes(std::string& out) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  /// Number of set bits.
  std::size_t popcount() const;

  /// True if any bit is set.
  bool any() const;
  /// True if no bit is set.
  bool none() const { return !any(); }

  /// Index of the lowest set bit, or size() if none.
  std::size_t find_first() const;
  /// Index of the lowest set bit at or after `from`, or size() if none.
  std::size_t find_next(std::size_t from) const;

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> ones() const;

  void clear();

  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);

  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }
  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }
  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }

  bool operator==(const BitVec& o) const = default;

  /// Parity (XOR) of the AND of two vectors — the symplectic-form workhorse.
  static bool and_parity(const BitVec& a, const BitVec& b);

  /// popcount(a | b) without materializing the OR — the Eq. (6) pair terms
  /// call this for every row pair, so the temporary matters.
  static std::size_t or_popcount(const BitVec& a, const BitVec& b);
  /// popcount(a | b | c), fused for the same reason.
  static std::size_t or3_popcount(const BitVec& a, const BitVec& b,
                                  const BitVec& c);

  /// '0'/'1' characters, index 0 first.
  std::string to_string() const;

  /// Stable hash for use as an unordered-map key.
  std::size_t hash() const;

  /// Backing 64-bit words, bit i at words()[i/64] bit i%64; bits past size()
  /// are always zero (mask_tail), so equal vectors have equal words. Used by
  /// content fingerprinting to absorb rows without per-bit traffic.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  void check_same_size(const BitVec& o) const;
  void mask_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

struct BitVecHash {
  std::size_t operator()(const BitVec& v) const { return v.hash(); }
};

}  // namespace phoenix
