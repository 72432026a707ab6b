// Exact two-level minimization: all prime implicants, then unate covering.
// Primes are generated from the OFF list (the reachable codes where the
// function is 0), not from the 3^n implicant lattice: next-state functions
// of asynchronous controllers leave every unreachable code a don't-care, so
// the OFF list is bounded by the reachable states. Exact primes matter because
// speed-independent covers must respect monotonicity constraints checked by
// the synthesizer downstream.
#pragma once

#include <vector>

#include "logic/cube.hpp"
#include "logic/truthtable.hpp"

namespace rtcad {

struct MinimizeOptions {
  /// Use exact branch-and-bound covering when the prime/minterm matrix is
  /// small enough; otherwise essential + greedy covering.
  bool exact_cover = true;
  /// Branch-and-bound size guard (primes * onset minterms).
  std::size_t exact_limit = 200000;
};

/// All prime implicants of (ON ∪ DC), most literals first, then by
/// (care, value) — the order a level-by-level Quine-McCluskey pass emits.
std::vector<Cube> prime_implicants(const TruthTable& f);

/// Minimum(ish) SOP cover of f: covers all ON minterms, avoids all OFF
/// minterms, may use DC minterms freely. Cube count is minimized first,
/// then literal count among selected primes.
Cover minimize(const TruthTable& f, const MinimizeOptions& opts = {});

/// Single-cube cover if one exists (the supercube of ON, if it avoids OFF).
/// Used by the domino mapper which prefers single-AND implementations.
bool single_cube_cover(const TruthTable& f, Cube* out);

}  // namespace rtcad
