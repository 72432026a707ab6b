// Differential oracle for analyze(): a naive quadratic reference analyzer
// (the pairwise persistency loop on every state, CSC classes through an
// ordered map with per-signal target values) against the O(edges) screen
// and sorted grouping in src/sg/analysis.cpp. Compared over the seeded
// fuzz specs, every checked-in specs/*.g, ring12/ring16 and a hand-built
// non-persistent spec (the fuzz rings are all persistent), so both the
// screen's fallback path and counts above the witness cap are exercised:
//
//  * the persistency witness list, in order (a prefix of the oracle's);
//  * the CSC conflicts, as a set (a subset of the oracle's above the cap);
//  * usc_classes and both exact counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fuzz_stg.hpp"
#include "sg/analysis.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

constexpr std::size_t kCap = 1000;  // analyze()'s default witness cap

using ConflictKey = std::tuple<int, int, std::uint64_t>;

struct Reference {
  std::vector<PersistencyViolation> persistency;  // every violation
  std::set<ConflictKey> conflicts;                // every conflict
  int usc_classes = 0;
};

Reference reference_analyze(const StateGraph& sg) {
  const Stg& stg = sg.stg();
  Reference ref;
  for (int s = 0; s < sg.num_states(); ++s) {
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = stg.transition(t).label;
      if (!label || stg.is_input(label->signal)) continue;
      for (const auto& [t2, to2] : sg.out_edges(s)) {
        if (t2 == t) continue;
        const auto& label2 = stg.transition(t2).label;
        if (label2 && label2->signal == label->signal) continue;
        if (!sg.excited(to2, *label)) ref.persistency.push_back({s, t, t2});
      }
    }
  }
  std::map<std::uint64_t, std::vector<int>> classes;
  for (int s = 0; s < sg.num_states(); ++s) classes[sg.code(s)].push_back(s);
  for (const auto& [code, members] : classes) {
    if (members.size() < 2) continue;
    ++ref.usc_classes;
    std::map<std::uint64_t, int> first_of;  // target signature -> state
    for (int s : members) {
      std::uint64_t target = 0;
      for (int sig = 0; sig < stg.num_signals(); ++sig) {
        if (!stg.is_input(sig) && sg.target_value(s, sig))
          target |= std::uint64_t{1} << sig;
      }
      first_of.emplace(target, s);
    }
    for (auto a = first_of.begin(); a != first_of.end(); ++a) {
      for (auto b = std::next(a); b != first_of.end(); ++b)
        ref.conflicts.insert({a->second, b->second, a->first ^ b->first});
    }
  }
  return ref;
}

struct Tally {
  int graphs = 0;
  int non_persistent = 0;
  int with_conflicts = 0;
  bool persistency_over_cap = false;
  bool conflicts_over_cap = false;
};

void expect_matches_reference(const StateGraph& sg, Tally* tally) {
  const SgAnalysis got = analyze(sg);
  const Reference ref = reference_analyze(sg);
  ++tally->graphs;

  ASSERT_EQ(got.persistency_count, ref.persistency.size());
  ASSERT_EQ(got.persistency.size(), std::min(kCap, ref.persistency.size()));
  for (std::size_t i = 0; i < got.persistency.size(); ++i) {
    EXPECT_EQ(got.persistency[i].state, ref.persistency[i].state) << i;
    EXPECT_EQ(got.persistency[i].disabled_transition,
              ref.persistency[i].disabled_transition)
        << i;
    EXPECT_EQ(got.persistency[i].by_transition, ref.persistency[i].by_transition)
        << i;
  }

  ASSERT_EQ(got.csc_conflict_count, ref.conflicts.size());
  ASSERT_EQ(got.csc_conflicts.size(), std::min(kCap, ref.conflicts.size()));
  std::set<ConflictKey> witnesses;
  for (const CscConflict& c : got.csc_conflicts) {
    const ConflictKey key{c.state_a, c.state_b, c.differing_signals};
    EXPECT_TRUE(ref.conflicts.count(key))
        << "conflict " << c.state_a << "/" << c.state_b << " not in oracle";
    EXPECT_TRUE(witnesses.insert(key).second) << "duplicate witness";
  }
  if (ref.conflicts.size() <= kCap) {
    EXPECT_EQ(witnesses, ref.conflicts);
  }

  EXPECT_EQ(got.usc_classes, ref.usc_classes);
  EXPECT_EQ(got.speed_independent(), ref.persistency.empty());
  EXPECT_EQ(got.has_csc(), ref.conflicts.empty());

  tally->non_persistent += !ref.persistency.empty();
  tally->with_conflicts += !ref.conflicts.empty();
  tally->persistency_over_cap |= ref.persistency.size() > kCap;
  tally->conflicts_over_cap |= ref.conflicts.size() > kCap;
}

// An output choice (x+ or y+ from one marked place: firing either disables
// the other) beside `toggles` free-running output rings, so the two
// violations of the choice state repeat in 2^toggles states.
Stg choice_with_toggles(int toggles) {
  Stg stg("choice_toggles");
  const int x = stg.add_signal("x", SignalKind::kOutput);
  const int y = stg.add_signal("y", SignalKind::kOutput);
  const int idle = stg.add_place("idle", 1);
  for (int sig : {x, y}) {
    const int rise = stg.add_transition(Edge{sig, Polarity::kRise});
    const int fall = stg.add_transition(Edge{sig, Polarity::kFall});
    stg.add_arc_pt(idle, rise);
    stg.add_arc_tt(rise, fall);
    stg.add_arc_tp(fall, idle);
  }
  for (int i = 0; i < toggles; ++i) {
    const int z = stg.add_signal("z" + std::to_string(i), SignalKind::kOutput);
    const int rise = stg.add_transition(Edge{z, Polarity::kRise});
    const int fall = stg.add_transition(Edge{z, Polarity::kFall});
    stg.add_arc_tt(rise, fall);
    stg.add_arc_tt(fall, rise, 1);
  }
  return stg;
}

TEST(AnalysisOracle, FuzzSpecs) {
  Tally tally;
  SgOptions opts;
  opts.max_states = 4096;
  for (std::uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Stg stg = random_stg(seed);
    try {
      const StateGraph sg = StateGraph::build(stg, opts);
      expect_matches_reference(sg, &tally);
    } catch (const SpecError&) {
      // inconsistent / unbounded / over the cap: nothing to analyze
    }
  }
  EXPECT_GE(tally.graphs, 20) << "generator degenerated: almost nothing builds";
  EXPECT_GE(tally.with_conflicts, 1) << "no fuzz spec has a CSC conflict";
}

TEST(AnalysisOracle, CheckedInSpecs) {
  Tally tally;
  for (const auto& entry :
       std::filesystem::directory_iterator(RTCAD_SPECS_DIR)) {
    if (entry.path().extension() != ".g") continue;
    SCOPED_TRACE(entry.path().filename().string());
    expect_matches_reference(
        StateGraph::build(parse_stg_file(entry.path().string())), &tally);
  }
  EXPECT_GE(tally.graphs, 19);
  EXPECT_GE(tally.with_conflicts, 1);
}

TEST(AnalysisOracle, RingsAboveTheWitnessCap) {
  Tally tally;
  expect_matches_reference(StateGraph::build(ring_stg(12)), &tally);
  const StateGraph ring16 = StateGraph::build(ring_stg(16));
  expect_matches_reference(ring16, &tally);
  EXPECT_TRUE(tally.conflicts_over_cap);
  // Pinned: the CI big-graph smoke greps the reachability trace for it.
  EXPECT_EQ(ring16.num_states(), 112606);
  EXPECT_EQ(analyze(ring16).csc_conflict_count, 9584u);
}

TEST(AnalysisOracle, NonPersistentAboveTheWitnessCap) {
  Tally tally;
  const StateGraph sg = StateGraph::build(choice_with_toggles(10));
  expect_matches_reference(sg, &tally);
  EXPECT_EQ(tally.non_persistent, 1);
  EXPECT_TRUE(tally.persistency_over_cap);
  EXPECT_EQ(analyze(sg).persistency_count, std::size_t{2} << 10);
}

}  // namespace
}  // namespace rtcad
