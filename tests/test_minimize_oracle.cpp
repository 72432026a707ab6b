// Differential oracle for prime_implicants(): textbook Quine-McCluskey over
// the whole implicant lattice of the truth table (the reference) against
// the OFF-list generator in src/logic/minimize.cpp. The two must return
// the identical vector, same primes in the same order, because the
// covering solver picks by index and switches between exact and greedy
// covering on the prime count. Compared over seeded random functions with
// 1..10 variables in three regimes:
//
//  * dense: ~30% ON, ~20% DC, the rest OFF (as MinimizeRandom);
//  * sparse OFF: at most 2n OFF codes, a few ON, everything else DC (the
//    shape derive_functions produces: unreachable codes are free);
//  * edges: no OFF code, no ON code, everything OFF.
//
// Every instance also goes through minimize(), whose cover must equal the
// one the reference covering solver (the CoverSolver before bit rows)
// picks from the reference primes, both with the default options (exact
// branch and bound at <= 64 primes, essential + greedy above) and with
// greedy covering forced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "logic/minimize.hpp"
#include "logic/truthtable.hpp"
#include "util/rng.hpp"

namespace rtcad {
namespace {

struct CubeHash {
  std::size_t operator()(const Cube& c) const {
    return std::hash<std::uint64_t>{}(c.care * 0x9e3779b97f4a7c15ull ^
                                      c.value);
  }
};

// Level-by-level Quine-McCluskey: merge same-care cubes that differ in one
// value bit; a cube that merges with nothing at its level is prime.
std::vector<Cube> reference_primes(const TruthTable& f) {
  const int n = f.nvars();
  std::unordered_set<Cube, CubeHash> current;
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (f.is_on(m) || f.is_dc(m)) current.insert(Cube::minterm(m, n));
  }
  std::vector<Cube> primes;
  while (!current.empty()) {
    std::unordered_set<Cube, CubeHash> next;
    std::unordered_set<Cube, CubeHash> merged;
    std::vector<Cube> cubes(current.begin(), current.end());
    std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
      return a.care != b.care ? a.care < b.care : a.value < b.value;
    });
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      for (std::size_t j = i + 1;
           j < cubes.size() && cubes[j].care == cubes[i].care; ++j) {
        const std::uint64_t diff = cubes[i].value ^ cubes[j].value;
        if (__builtin_popcountll(diff) == 1) {
          next.insert(Cube{cubes[i].care & ~diff, cubes[i].value & ~diff});
          merged.insert(cubes[i]);
          merged.insert(cubes[j]);
        }
      }
    }
    for (const auto& c : cubes) {
      if (!merged.count(c)) primes.push_back(c);
    }
    current = std::move(next);
  }
  return primes;
}

// Unate covering as the library did it before coverage rows: every scan
// re-tests covers_minterm over the targets. Returns selected prime indices.
class ReferenceCoverSolver {
 public:
  ReferenceCoverSolver(const std::vector<Cube>& primes,
                       const std::vector<std::uint32_t>& targets, bool exact,
                       std::size_t exact_limit)
      : primes_(primes), targets_(targets) {
    covers_.resize(targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
      for (std::size_t p = 0; p < primes.size(); ++p) {
        if (primes[p].covers_minterm(targets[t]))
          covers_[t].push_back(p);
      }
      RTCAD_ASSERT(!covers_[t].empty());  // primes always cover ON set
    }
    exact_ = exact && primes.size() * targets.size() <= exact_limit &&
             primes.size() <= 64;
  }

  std::vector<std::size_t> solve() {
    std::vector<std::size_t> chosen = essential_plus_greedy();
    if (!exact_) return chosen;
    // Branch and bound, seeded with the greedy solution as the bound.
    best_ = chosen;
    std::vector<std::size_t> partial;
    BitVec covered(targets_.size());
    mark(covered, partial, essential_only());
    branch(covered, partial);
    return best_;
  }

 private:
  std::vector<std::size_t> essential_only() {
    std::vector<std::size_t> ess;
    for (std::size_t t = 0; t < targets_.size(); ++t) {
      if (covers_[t].size() == 1) ess.push_back(covers_[t][0]);
    }
    std::sort(ess.begin(), ess.end());
    ess.erase(std::unique(ess.begin(), ess.end()), ess.end());
    return ess;
  }

  void mark(BitVec& covered, std::vector<std::size_t>& partial,
            const std::vector<std::size_t>& picks) {
    for (auto p : picks) {
      partial.push_back(p);
      for (std::size_t t = 0; t < targets_.size(); ++t)
        if (primes_[p].covers_minterm(targets_[t])) covered.set(t);
    }
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

  void branch(BitVec& covered, std::vector<std::size_t>& partial) {
    if (partial.size() >= best_.size() &&
        !(partial.size() == best_.size() &&
          covered.count() == targets_.size()))
      return;  // bound on cube count
    // Find first uncovered target.
    std::size_t t = targets_.size();
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      if (!covered.test(i)) {
        t = i;
        break;
      }
    }
    if (t == targets_.size()) {
      if (better(partial, best_)) best_ = partial;
      return;
    }
    for (auto p : covers_[t]) {
      std::vector<bool> newly;
      newly.reserve(targets_.size());
      for (std::size_t i = 0; i < targets_.size(); ++i) {
        const bool add = !covered.test(i) &&
                         primes_[p].covers_minterm(targets_[i]);
        newly.push_back(add);
        if (add) covered.set(i);
      }
      partial.push_back(p);
      branch(covered, partial);
      partial.pop_back();
      for (std::size_t i = 0; i < targets_.size(); ++i)
        if (newly[i]) covered.reset(i);
    }
  }

  std::vector<std::size_t> essential_plus_greedy() {
    std::vector<std::size_t> chosen = essential_only();
    BitVec covered(targets_.size());
    for (auto p : chosen)
      for (std::size_t t = 0; t < targets_.size(); ++t)
        if (primes_[p].covers_minterm(targets_[t])) covered.set(t);
    while (covered.count() < targets_.size()) {
      std::size_t best_p = primes_.size();
      long best_gain = -1;
      for (std::size_t p = 0; p < primes_.size(); ++p) {
        long gain = 0;
        for (std::size_t t = 0; t < targets_.size(); ++t)
          if (!covered.test(t) && primes_[p].covers_minterm(targets_[t]))
            ++gain;
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
      for (std::size_t t = 0; t < targets_.size(); ++t)
        if (primes_[best_p].covers_minterm(targets_[t])) covered.set(t);
    }
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    return chosen;
  }

  const std::vector<Cube>& primes_;
  const std::vector<std::uint32_t>& targets_;
  std::vector<std::vector<std::size_t>> covers_;
  std::vector<std::size_t> best_;
  bool exact_ = false;
};

Cover reference_minimize(const TruthTable& f, const MinimizeOptions& opts) {
  Cover out(f.nvars());
  std::vector<std::uint32_t> on;
  for (std::uint32_t m = 0; m < f.size(); ++m)
    if (f.is_on(m)) on.push_back(m);
  if (on.empty()) return out;
  const std::vector<Cube> primes = reference_primes(f);
  if (primes.size() == 1 && primes[0].is_tautology()) {
    out.cubes.push_back(Cube::tautology());
    return out;
  }
  ReferenceCoverSolver solver(primes, on, opts.exact_cover, opts.exact_limit);
  for (auto idx : solver.solve()) out.cubes.push_back(primes[idx]);
  return out;
}

struct Tally {
  int functions = 0;
  int above_64 = 0;    // greedy covering
  int at_most_64 = 0;  // exact covering (size guard permitting)
};

// `exact` also compares the default (exact branch and bound) covers; the
// greedy covers are compared on every instance.
void expect_matches_reference(const TruthTable& f, Tally* tally,
                              bool exact = true) {
  const std::vector<Cube> got = prime_implicants(f);
  const std::vector<Cube> want = reference_primes(f);
  ++tally->functions;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].care, want[i].care) << "prime " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "prime " << i;
  }
  (got.size() > 64 ? tally->above_64 : tally->at_most_64)++;

  const Cover c = minimize(f);
  EXPECT_EQ(c.empty(), f.on_count() == 0);
  EXPECT_TRUE(f.is_implemented_by(c));
  MinimizeOptions greedy;
  greedy.exact_cover = false;
  EXPECT_EQ(minimize(f, greedy).cubes, reference_minimize(f, greedy).cubes)
      << "greedy covering picks moved";
  if (exact) {
    EXPECT_EQ(c.cubes, reference_minimize(f, {}).cubes)
        << "exact covering picks moved";
  }
}

constexpr std::uint64_t kSeeds = 6;

TEST(MinimizeOracle, Dense) {
  Tally tally;
  for (int n = 1; n <= 10; ++n) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(n));
      TruthTable f(n);
      for (std::uint32_t m = 0; m < f.size(); ++m) {
        const double p = rng.uniform();
        if (p < 0.3)
          f.set_on(m);
        else if (p < 0.5)
          f.set_dc(m);
      }
      // Exact covers are compared up to n = 6 (MinimizeRandom's range). At
      // n = 7 the ~50-prime searches have no bound but the cube count and
      // one takes seconds in the reference solver.
      expect_matches_reference(f, &tally, /*exact=*/n <= 6);
    }
  }
  EXPECT_GE(tally.above_64, 1) << "no instance reaches greedy covering";
  EXPECT_GE(tally.at_most_64, 1) << "no instance reaches exact covering";
}

TEST(MinimizeOracle, SparseOff) {
  Tally tally;
  for (int n = 1; n <= 10; ++n) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(n));
      TruthTable f(n);
      f.fill_unspecified_with_dc();
      const auto off = 1 + rng.below(2 * static_cast<std::uint64_t>(n));
      for (std::uint64_t i = 0; i < off; ++i)
        f.set_off(static_cast<std::uint32_t>(rng.below(f.size())));
      const auto on = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < on; ++i) {
        const auto m = static_cast<std::uint32_t>(rng.below(f.size()));
        if (f.is_dc(m)) f.set_on(m);
      }
      expect_matches_reference(f, &tally);
    }
  }
  // 10 variables against up to 20 OFF codes: the primes run past 64.
  EXPECT_GE(tally.above_64, 1) << "no instance reaches greedy covering";
  EXPECT_GE(tally.at_most_64, 1) << "no instance reaches exact covering";
}

TEST(MinimizeOracle, Edges) {
  Tally tally;
  for (int n = 0; n <= 10; ++n) {
    SCOPED_TRACE("n " + std::to_string(n));
    // No OFF code: the tautology is the only prime and the cover.
    TruthTable no_off(n);
    no_off.fill_unspecified_with_dc();
    no_off.set_on(0);
    expect_matches_reference(no_off, &tally);
    ASSERT_EQ(prime_implicants(no_off).size(), 1u);
    EXPECT_TRUE(prime_implicants(no_off)[0].is_tautology());
    ASSERT_EQ(minimize(no_off).cubes.size(), 1u);
    EXPECT_TRUE(minimize(no_off).cubes[0].is_tautology());

    // No ON code: constant 0, whatever the DC primes are.
    TruthTable no_on(n);
    no_on.fill_unspecified_with_dc();
    no_on.set_off(0);
    expect_matches_reference(no_on, &tally);
    EXPECT_TRUE(minimize(no_on).empty());

    // Everything OFF: no prime at all.
    const TruthTable all_off(n);
    expect_matches_reference(all_off, &tally);
    EXPECT_TRUE(prime_implicants(all_off).empty());
    EXPECT_TRUE(minimize(all_off).empty());
  }
}

}  // namespace
}  // namespace rtcad
