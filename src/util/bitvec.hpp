// Dynamic bit vector used for truth tables, state sets, and fault masks.
//
// std::vector<bool> is avoided on purpose: we need word-level access for
// fast set algebra (and/or/andnot/count) over truth tables with up to 2^20
// entries, and popcount-based iteration over set bits.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace rtcad {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits, bool value = false)
      : nbits_(nbits),
        words_(word_count(nbits), value ? ~std::uint64_t{0} : 0) {
    trim();
  }

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  bool test(std::size_t i) const {
    RTCAD_EXPECTS(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  bool operator[](std::size_t i) const { return test(i); }

  void set(std::size_t i, bool v = true) {
    RTCAD_EXPECTS(i < nbits_);
    if (v)
      words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
    else
      words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void reset(std::size_t i) { set(i, false); }
  void reset_all() { words_.assign(words_.size(), 0); }
  void set_all() {
    words_.assign(words_.size(), ~std::uint64_t{0});
    trim();
  }

  void resize(std::size_t nbits, bool value = false);

  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// Index of the first set bit, or size() if none.
  std::size_t find_first() const;
  /// Index of the next set bit strictly after `i`, or size() if none.
  std::size_t find_next(std::size_t i) const;

  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);
  /// this &= ~o
  BitVec& and_not(const BitVec& o);

  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }
  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }
  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }

  bool operator==(const BitVec& o) const = default;

  /// True if every set bit of this is also set in `o`.
  bool is_subset_of(const BitVec& o) const;
  bool intersects(const BitVec& o) const;
  /// Number of bits set in both this and `o`.
  std::size_t intersection_count(const BitVec& o) const;

  std::size_t hash() const;

  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  static std::size_t word_count(std::size_t nbits) { return (nbits + 63) / 64; }
  /// Clear the unused high bits of the last word so == and count are exact.
  void trim();

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rtcad
