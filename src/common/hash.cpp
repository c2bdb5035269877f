#include "common/hash.hpp"

#include <bit>
#include <cmath>
#include <cstring>

namespace phoenix {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kCanonicalNan = 0x7ff8000000000000ull;

/// SplitMix64 finalizer — full avalanche on one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::string Digest128::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i)
    out[15 - i] = digits[(hi >> (4 * i)) & 0xf];
  for (int i = 0; i < 16; ++i)
    out[31 - i] = digits[(lo >> (4 * i)) & 0xf];
  return out;
}

std::optional<Digest128> Digest128::from_hex(const std::string& s) {
  if (s.size() != 32) return std::nullopt;
  Digest128 d;
  for (int i = 0; i < 32; ++i) {
    const char c = s[i];
    std::uint64_t v;
    if (c >= '0' && c <= '9')
      v = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v = static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
    (i < 16 ? d.hi : d.lo) = ((i < 16 ? d.hi : d.lo) << 4) | v;
  }
  return d;
}

Hash128::Hash128(std::uint64_t seed)
    : s0_(mix64(seed + kGolden)), s1_(mix64(seed + 2 * kGolden)) {}

void Hash128::write_u64(std::uint64_t v) {
  ++count_;
  s0_ = mix64(s0_ ^ (v + count_ * kGolden));
  s1_ = mix64(s1_ + std::rotl(v, 23)) ^ s0_;
}

void Hash128::write_double(double v) {
  write_u64(std::isnan(v) ? kCanonicalNan : std::bit_cast<std::uint64_t>(v));
}

void Hash128::write_bytes(const void* data, std::size_t len) {
  write_u64(static_cast<std::uint64_t>(len));
  const auto* p = static_cast<const unsigned char*>(data);
  while (len > 0) {
    const std::size_t chunk = len < 8 ? len : 8;
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < chunk; ++i)  // little-endian assembly
      w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    write_u64(w);
    p += chunk;
    len -= chunk;
  }
}

Digest128 Hash128::digest() const {
  Digest128 d;
  d.hi = mix64(s0_ + std::rotl(s1_, 31) + count_);
  d.lo = mix64(s1_ ^ d.hi);
  return d;
}

}  // namespace phoenix
