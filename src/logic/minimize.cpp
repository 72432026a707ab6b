#include "logic/minimize.hpp"

#include <algorithm>

namespace rtcad {
namespace {

/// Indices of the set bits of `b`, in increasing order.
std::vector<std::uint32_t> set_bits(const BitVec& b) {
  std::vector<std::uint32_t> out;
  for (std::size_t m = b.find_first(); m < b.size(); m = b.find_next(m))
    out.push_back(static_cast<std::uint32_t>(m));
  return out;
}

/// The OFF minterms of f (neither ON nor DC), in increasing order.
std::vector<std::uint32_t> off_codes(const TruthTable& f) {
  BitVec off(f.size(), true);
  off.and_not(f.on_set());
  off.and_not(f.dc_set());
  return set_bits(off);
}

}  // namespace

std::vector<Cube> prime_implicants(const TruthTable& f) {
  const std::uint64_t all_vars = (std::uint64_t{1} << f.nvars()) - 1;
  // Invariant: `primes` holds every prime of the complement of the OFF
  // codes folded in so far, with no cube contained in another. Folding in
  // code o multiplies by the clause "some literal differs from o": a cube
  // that misses o is kept; one that covers o is split into its extensions
  // by one literal opposite to o. Split cubes agree with o on every
  // literal, so an extension c·l can only be absorbed by a kept cube whose
  // one literal opposite to o is l and whose other literals are all in c.
  // Two extensions never coincide, so no hashing is needed.
  std::vector<Cube> primes{Cube::tautology()};
  std::vector<Cube> split;
  struct Near {
    std::uint64_t rest;      ///< care bits of the literals agreeing with o
    std::uint64_t opposite;  ///< the one literal opposite to o
  };
  std::vector<Near> near;
  for (const std::uint32_t o : off_codes(f)) {
    const auto mid =
        std::partition(primes.begin(), primes.end(),
                       [o](const Cube& c) { return !c.covers_minterm(o); });
    if (mid == primes.end()) continue;
    split.assign(mid, primes.end());
    primes.erase(mid, primes.end());
    near.clear();
    for (const Cube& d : primes) {
      const std::uint64_t opposite = (d.value ^ o) & d.care;
      if ((opposite & (opposite - 1)) == 0)
        near.push_back({d.care & ~opposite, opposite});
    }
    for (const Cube& c : split) {
      std::uint64_t absorbed = 0;
      for (const Near& d : near)
        if ((d.rest & ~c.care) == 0) absorbed |= d.opposite;
      for (std::uint64_t free = all_vars & ~c.care & ~absorbed; free != 0;
           free &= free - 1) {
        const std::uint64_t bit = free & (~free + 1);
        primes.push_back(
            Cube{c.care | bit, c.value | (~std::uint64_t{o} & bit)});
      }
    }
  }
  // Most literals first, then (care, value): the order in which a
  // level-by-level Quine-McCluskey pass emits the same set.
  std::sort(primes.begin(), primes.end(), [](const Cube& a, const Cube& b) {
    if (a.num_literals() != b.num_literals())
      return a.num_literals() > b.num_literals();
    return a.care != b.care ? a.care < b.care : a.value < b.value;
  });
  return primes;
}

namespace {

/// Unate covering: choose a subset of `primes` covering every index in
/// `targets` (ON-set minterms). Returns selected prime indices. Each
/// prime's coverage of the targets is one bit row, built once.
class CoverSolver {
 public:
  CoverSolver(const std::vector<Cube>& primes,
              const std::vector<std::uint32_t>& targets, bool exact,
              std::size_t exact_limit)
      : primes_(primes), num_targets_(targets.size()) {
    BitVec once(num_targets_), twice(num_targets_);
    rows_.reserve(primes.size());
    for (const Cube& prime : primes) {
      BitVec row(num_targets_);
      for (std::size_t t = 0; t < num_targets_; ++t)
        if (prime.covers_minterm(targets[t])) row.set(t);
      twice |= once & row;
      once |= row;
      rows_.push_back(std::move(row));
    }
    RTCAD_ASSERT(once.count() == num_targets_);  // primes always cover ON
    // A prime is essential iff it is the only cover of some target.
    once.and_not(twice);
    for (std::size_t p = 0; p < rows_.size(); ++p)
      if (rows_[p].intersects(once)) essential_.push_back(p);
    exact_ = exact && primes.size() * num_targets_ <= exact_limit &&
             primes.size() <= 64;
  }

  std::vector<std::size_t> solve() {
    std::vector<std::size_t> chosen = essential_plus_greedy();
    if (!exact_) return chosen;
    // Branch and bound, seeded with the greedy solution as the bound. The
    // search never goes deeper than that bound, so one uncovered set per
    // depth serves every node.
    best_ = chosen;
    std::vector<std::size_t> partial = essential_;
    uncovered_.assign(best_.size() + 1, uncovered_after(essential_));
    branch(partial);
    return best_;
  }

 private:
  BitVec uncovered_after(const std::vector<std::size_t>& picks) const {
    BitVec uncovered(num_targets_, true);
    for (auto p : picks) uncovered.and_not(rows_[p]);
    return uncovered;
  }

  static int total_literals(const std::vector<Cube>& primes,
                            const std::vector<std::size_t>& sel) {
    int n = 0;
    for (auto i : sel) n += primes[i].num_literals();
    return n;
  }

  bool better(const std::vector<std::size_t>& a,
              const std::vector<std::size_t>& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return total_literals(primes_, a) < total_literals(primes_, b);
  }

  void branch(std::vector<std::size_t>& partial) {
    const BitVec& uncovered = uncovered_[partial.size()];
    if (partial.size() >= best_.size() &&
        !(partial.size() == best_.size() && uncovered.none()))
      return;  // bound on cube count
    const std::size_t t = uncovered.find_first();
    if (t == num_targets_) {
      if (better(partial, best_)) best_ = partial;
      return;
    }
    for (std::size_t p = 0; p < rows_.size(); ++p) {
      if (!rows_[p].test(t)) continue;
      BitVec& next = uncovered_[partial.size() + 1];
      next = uncovered;
      next.and_not(rows_[p]);
      partial.push_back(p);
      branch(partial);
      partial.pop_back();
    }
  }

  std::vector<std::size_t> essential_plus_greedy() const {
    std::vector<std::size_t> chosen = essential_;
    BitVec uncovered = uncovered_after(chosen);
    while (uncovered.any()) {
      std::size_t best_p = primes_.size();
      long best_gain = -1;
      for (std::size_t p = 0; p < primes_.size(); ++p) {
        const long gain =
            static_cast<long>(rows_[p].intersection_count(uncovered));
        // Prefer more coverage; break ties toward fewer literals.
        if (gain > best_gain ||
            (gain == best_gain && best_p < primes_.size() &&
             primes_[p].num_literals() < primes_[best_p].num_literals())) {
          best_gain = gain;
          best_p = p;
        }
      }
      RTCAD_ASSERT(best_p < primes_.size() && best_gain > 0);
      chosen.push_back(best_p);
      uncovered.and_not(rows_[best_p]);
    }
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    return chosen;
  }

  const std::vector<Cube>& primes_;
  const std::size_t num_targets_;
  std::vector<BitVec> rows_;            ///< prime -> the targets it covers
  std::vector<std::size_t> essential_;  ///< sole covers, increasing
  std::vector<BitVec> uncovered_;       ///< branch scratch, one per depth
  std::vector<std::size_t> best_;
  bool exact_ = false;
};

}  // namespace

Cover minimize(const TruthTable& f, const MinimizeOptions& opts) {
  Cover out(f.nvars());
  const std::vector<std::uint32_t> on = set_bits(f.on_set());
  if (on.empty()) return out;  // constant 0

  const std::vector<Cube> primes = prime_implicants(f);
  if (primes.size() == 1 && primes[0].is_tautology()) {
    out.cubes.push_back(Cube::tautology());
    return out;
  }

  CoverSolver solver(primes, on, opts.exact_cover, opts.exact_limit);
  for (auto idx : solver.solve()) out.cubes.push_back(primes[idx]);
  RTCAD_ENSURES(f.is_implemented_by(out));
  return out;
}

bool single_cube_cover(const TruthTable& f, Cube* out) {
  // Supercube of the ON set: drop every variable on which ON disagrees.
  const std::vector<std::uint32_t> on = set_bits(f.on_set());
  if (on.empty()) return false;
  std::uint64_t all_ones = ~std::uint64_t{0};
  std::uint64_t all_zeros = ~std::uint64_t{0};
  for (const std::uint32_t m : on) {
    all_ones &= m;
    all_zeros &= ~static_cast<std::uint64_t>(m);
  }
  const std::uint64_t mask = (std::uint64_t{1} << f.nvars()) - 1;
  Cube c{(all_ones | all_zeros) & mask, all_ones & mask};
  for (const std::uint32_t m : off_codes(f)) {
    if (c.covers_minterm(m)) return false;
  }
  *out = c;
  return true;
}

}  // namespace rtcad
