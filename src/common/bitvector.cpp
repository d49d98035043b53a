#include "common/bitvector.hpp"

#include <bit>

namespace pima {

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    PIMA_CHECK(bits[i] == '0' || bits[i] == '1', "expected 0/1 string");
    v.set(i, bits[i] == '1');
  }
  return v;
}

void BitVector::fill(bool v) {
  const std::uint64_t pattern = v ? ~std::uint64_t{0} : 0;
  for (auto& w : words_) w = pattern;
  clear_tail();
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool BitVector::all() const { return popcount() == size_; }

void BitVector::set_word(std::size_t w, std::uint64_t v) {
  PIMA_CHECK(w < words_.size(), "word index out of range");
  words_[w] = v;
  if (w + 1 == words_.size()) clear_tail();
}

void BitVector::copy_range_from(const BitVector& src, std::size_t lo) {
  PIMA_CHECK(lo + src.size() <= size_, "range copy overflows destination");
  for (std::size_t i = 0; i < src.size(); ++i) set(lo + i, src.get(i));
}

BitVector BitVector::slice(std::size_t lo, std::size_t len) const {
  PIMA_CHECK(lo + len <= size_, "slice out of range");
  BitVector out(len);
  for (std::size_t i = 0; i < len; ++i) out.set(i, get(lo + i));
  return out;
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i)
    if (get(i)) s[i] = '1';
  return s;
}

void BitVector::clear_tail() {
  const std::size_t rem = size_ % 64;
  if (rem != 0 && !words_.empty())
    words_.back() &= (std::uint64_t{1} << rem) - 1;
}

void BitVector::check_same_size(const BitVector& a, const BitVector& b) {
  PIMA_CHECK(a.size() == b.size(), "bulk logic operands differ in size");
}

BitVector& BitVector::xnor_with(const BitVector& b) {
  check_same_size(*this, b);
  for (std::size_t w = 0; w < words_.size(); ++w)
    words_[w] = ~(words_[w] ^ b.words_[w]);
  clear_tail();
  return *this;
}

BitVector& BitVector::xor_with(const BitVector& b) {
  check_same_size(*this, b);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= b.words_[w];
  return *this;
}

BitVector& BitVector::and_with(const BitVector& b) {
  check_same_size(*this, b);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= b.words_[w];
  return *this;
}

BitVector& BitVector::or_with(const BitVector& b) {
  check_same_size(*this, b);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= b.words_[w];
  return *this;
}

BitVector& BitVector::invert() {
  for (auto& w : words_) w = ~w;
  clear_tail();
  return *this;
}

BitVector& BitVector::maj3_with(const BitVector& b, const BitVector& c) {
  check_same_size(*this, b);
  check_same_size(b, c);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const auto x = words_[w], y = b.words_[w], z = c.words_[w];
    words_[w] = (x & y) | (y & z) | (x & z);
  }
  return *this;
}

BitVector BitVector::bit_xnor(const BitVector& a, const BitVector& b) {
  BitVector r = a;
  r.xnor_with(b);
  return r;
}

BitVector BitVector::bit_xor(const BitVector& a, const BitVector& b) {
  BitVector r = a;
  r.xor_with(b);
  return r;
}

BitVector BitVector::bit_and(const BitVector& a, const BitVector& b) {
  BitVector r = a;
  r.and_with(b);
  return r;
}

BitVector BitVector::bit_or(const BitVector& a, const BitVector& b) {
  BitVector r = a;
  r.or_with(b);
  return r;
}

BitVector BitVector::bit_not(const BitVector& a) {
  BitVector r = a;
  r.invert();
  return r;
}

BitVector BitVector::bit_maj3(const BitVector& a, const BitVector& b,
                              const BitVector& c) {
  BitVector r = a;
  r.maj3_with(b, c);
  return r;
}

}  // namespace pima
