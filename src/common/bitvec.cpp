#include "common/bitvec.hpp"

#include <bit>
#include <stdexcept>

#include "common/simd.hpp"

namespace phoenix {

BitVec BitVec::from_string(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1')
      v.set(i, true);
    else if (bits[i] != '0')
      throw std::invalid_argument("BitVec::from_string: bad character");
  }
  return v;
}

BitVec BitVec::from_bytes(const unsigned char* bytes, std::size_t n) {
  BitVec v(n);
  const std::size_t nbytes = n / 8 + (n % 8 != 0);
  for (std::size_t i = 0; i < nbytes; ++i)
    v.words_[i / 8] |= std::uint64_t{bytes[i]} << (8 * (i % 8));
  v.mask_tail();
  return v;
}

void BitVec::append_bytes(std::string& out) const {
  const std::size_t nbytes = size_ / 8 + (size_ % 8 != 0);
  for (std::size_t i = 0; i < nbytes; ++i)
    out += static_cast<char>((words_[i / 8] >> (8 * (i % 8))) & 0xff);
}

std::size_t BitVec::popcount() const {
  return simd::popcount_words(words_.data(), words_.size());
}

bool BitVec::any() const {
  for (auto w : words_)
    if (w != 0) return true;
  return false;
}

std::size_t BitVec::find_first() const { return find_next(0); }

std::size_t BitVec::find_next(std::size_t from) const {
  if (from >= size_) return size_;
  std::size_t wi = from >> 6;
  std::uint64_t w = words_[wi] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (w != 0) {
      std::size_t idx = (wi << 6) + static_cast<std::size_t>(std::countr_zero(w));
      return idx < size_ ? idx : size_;
    }
    if (++wi >= words_.size()) return size_;
    w = words_[wi];
  }
}

std::vector<std::size_t> BitVec::ones() const {
  std::vector<std::size_t> out;
  for (std::size_t i = find_first(); i < size_; i = find_next(i + 1))
    out.push_back(i);
  return out;
}

void BitVec::clear() {
  for (auto& w : words_) w = 0;
}

void BitVec::check_same_size(const BitVec& o) const {
  if (size_ != o.size_)
    throw std::invalid_argument("BitVec: size mismatch in bitwise operation");
}

void BitVec::mask_tail() {
  const std::size_t rem = size_ & 63;
  if (rem != 0 && !words_.empty())
    words_.back() &= (std::uint64_t{1} << rem) - 1;
}

BitVec& BitVec::operator&=(const BitVec& o) {
  check_same_size(o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  check_same_size(o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& o) {
  check_same_size(o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

std::size_t BitVec::or_popcount(const BitVec& a, const BitVec& b) {
  a.check_same_size(b);
  return simd::or_popcount_words(a.words_.data(), b.words_.data(),
                                 a.words_.size());
}

std::size_t BitVec::or3_popcount(const BitVec& a, const BitVec& b,
                                 const BitVec& c) {
  a.check_same_size(b);
  a.check_same_size(c);
  return simd::or3_popcount_words(a.words_.data(), b.words_.data(),
                                  c.words_.data(), a.words_.size());
}

bool BitVec::and_parity(const BitVec& a, const BitVec& b) {
  a.check_same_size(b);
  return simd::and_parity_words(a.words_.data(), b.words_.data(),
                                a.words_.size());
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i)
    if (get(i)) s[i] = '1';
  return s;
}

std::size_t BitVec::hash() const {
  // FNV-1a over words, seeded with size.
  std::uint64_t h = 1469598103934665603ull ^ size_;
  for (auto w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace phoenix
