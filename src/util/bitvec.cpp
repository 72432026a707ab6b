#include "util/bitvec.hpp"

#include <bit>

namespace rtcad {

void BitVec::resize(std::size_t nbits, bool value) {
  const std::size_t old_bits = nbits_;
  nbits_ = nbits;
  words_.resize(word_count(nbits), value ? ~std::uint64_t{0} : 0);
  if (value && nbits > old_bits && old_bits % 64 != 0) {
    // Fill the tail of the previously-last word.
    const std::size_t w = old_bits >> 6;
    words_[w] |= ~std::uint64_t{0} << (old_bits & 63);
  }
  trim();
}

void BitVec::trim() {
  if (nbits_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << (nbits_ & 63)) - 1;
  }
}

std::size_t BitVec::count() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool BitVec::any() const {
  for (auto w : words_)
    if (w != 0) return true;
  return false;
}

std::size_t BitVec::find_first() const {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0)
      return wi * 64 + static_cast<std::size_t>(std::countr_zero(words_[wi]));
  }
  return nbits_;
}

std::size_t BitVec::find_next(std::size_t i) const {
  ++i;
  if (i >= nbits_) return nbits_;
  std::size_t wi = i >> 6;
  std::uint64_t w = words_[wi] & (~std::uint64_t{0} << (i & 63));
  while (true) {
    if (w != 0)
      return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
    if (++wi >= words_.size()) return nbits_;
    w = words_[wi];
  }
}

BitVec& BitVec::operator&=(const BitVec& o) {
  RTCAD_EXPECTS(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  RTCAD_EXPECTS(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& o) {
  RTCAD_EXPECTS(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

BitVec& BitVec::and_not(const BitVec& o) {
  RTCAD_EXPECTS(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  return *this;
}

bool BitVec::is_subset_of(const BitVec& o) const {
  RTCAD_EXPECTS(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~o.words_[i]) != 0) return false;
  }
  return true;
}

bool BitVec::intersects(const BitVec& o) const {
  RTCAD_EXPECTS(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & o.words_[i]) != 0) return true;
  }
  return false;
}

std::size_t BitVec::intersection_count(const BitVec& o) const {
  RTCAD_EXPECTS(nbits_ == o.nbits_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    n += static_cast<std::size_t>(std::popcount(words_[i] & o.words_[i]));
  return n;
}

std::size_t BitVec::hash() const {
  // FNV-1a over the words; good enough for hash-map keys of state sets.
  std::uint64_t h = 1469598103934665603ull;
  for (auto w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace rtcad
