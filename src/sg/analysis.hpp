// Implementability analysis over the state graph: output persistency
// (speed-independence) and Complete State Coding, the two properties the
// paper's Figure 2 flow establishes before logic synthesis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sg/stategraph.hpp"

namespace rtcad {

/// An enabled non-input transition was disabled by another firing — a
/// potential hazard; the specification is not speed-independent.
struct PersistencyViolation {
  int state = -1;
  int disabled_transition = -1;  ///< transition whose edge got disabled
  int by_transition = -1;        ///< transition that fired
};

/// Two reachable states share a binary code but disagree on the next-state
/// behaviour of at least one non-input signal.
struct CscConflict {
  int state_a = -1;
  int state_b = -1;
  std::uint64_t differing_signals = 0;  ///< bitmask of conflicting signals
};

/// Exact totals beside capped witness lists: `persistency` and
/// `csc_conflicts` hold at most `max_reported` witnesses each, while
/// `persistency_count` and `csc_conflict_count` count every violation and
/// conflict. Anything that reports or decides on a number reads the counts.
struct SgAnalysis {
  /// The first violations in state order (then out-edge order).
  std::vector<PersistencyViolation> persistency;
  /// The first conflicts found; which classes come first is unspecified.
  std::vector<CscConflict> csc_conflicts;
  std::size_t persistency_count = 0;
  std::size_t csc_conflict_count = 0;
  /// Number of code classes holding more than one state (USC violations);
  /// benign unless they also appear in csc_conflicts.
  int usc_classes = 0;

  bool speed_independent() const { return persistency_count == 0; }
  bool has_csc() const { return csc_conflict_count == 0; }
};

/// O(states log states + edges): a per-state mask screen for persistency
/// and one sort by (code, state) for the CSC classes.
SgAnalysis analyze(const StateGraph& sg, std::size_t max_reported = 1000);

/// Render one conflict for logs/tests.
std::string describe(const StateGraph& sg, const CscConflict& c);
std::string describe(const StateGraph& sg, const PersistencyViolation& v);

}  // namespace rtcad
