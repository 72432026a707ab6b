#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sg/analysis.hpp"
#include "sg/encode.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "sg/dot.hpp"

namespace rtcad {
namespace {

TEST(StateGraph, HandshakeHasFourStates) {
  const Stg stg = parse_stg_string(R"(
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
)");
  const StateGraph sg = StateGraph::build(stg);
  EXPECT_EQ(sg.num_states(), 4);
  EXPECT_EQ(sg.num_edges(), 4);
  EXPECT_EQ(sg.initial_code(), 0u);
}

TEST(StateGraph, CelementHasEightStates) {
  const StateGraph sg = StateGraph::build(celement_stg());
  EXPECT_EQ(sg.num_states(), 8);
}

TEST(StateGraph, InitialValuesInferred) {
  // z starts high: first transition of z is z-.
  const Stg stg = parse_stg_string(R"(
.model inv
.inputs a
.outputs z
.graph
a+ z-
z- a-
a- z+
z+ a+
.marking { <z+,a+> }
.end
)");
  const StateGraph sg = StateGraph::build(stg);
  const int z = stg.signal_id("z");
  EXPECT_TRUE((sg.initial_code() >> z) & 1);
}

TEST(StateGraph, DetectsInconsistency) {
  // a+ enabled twice along a path without a-.
  const Stg stg = parse_stg_string(R"(
.model bad
.inputs a
.outputs z
.graph
a+/1 a+/2
a+/2 z+
z+ a-
a- z-
z- a+/1
.marking { <z-,a+/1> }
.end
)");
  EXPECT_THROW(StateGraph::build(stg), SpecError);
}

TEST(StateGraph, StateLimitEnforced) {
  SgOptions opts;
  opts.max_states = 4;
  EXPECT_THROW(StateGraph::build(pipeline_stg(4), opts), SpecError);
}

// Three bounded producer/consumer pairs: producer p_i puts a token into
// buffer buf_i (capacity i + 2, held as tokens of free_i), consumer c_i
// takes it. Multi-token places, and 18 places: the marking row is two
// 8-byte hash words plus a 2-byte tail.
Stg bounded_buffers() {
  Stg stg("buffers");
  for (int i = 0; i < 3; ++i) {
    const std::string n = std::to_string(i);
    const int free_slots = stg.add_place("free" + n, i + 2);
    const int buf = stg.add_place("buf" + n, 0);
    int edges[2][2];
    for (int side = 0; side < 2; ++side) {
      const int sig = stg.add_signal((side ? "c" : "p") + n,
                                     SignalKind::kOutput);
      edges[side][0] = stg.add_transition(Edge{sig, Polarity::kRise});
      edges[side][1] = stg.add_transition(Edge{sig, Polarity::kFall});
      stg.add_arc_tt(edges[side][0], edges[side][1]);
      stg.add_arc_tt(edges[side][1], edges[side][0], 1);
    }
    stg.add_arc_pt(free_slots, edges[0][0]);
    stg.add_arc_tp(edges[0][0], buf);
    stg.add_arc_pt(buf, edges[1][0]);
    stg.add_arc_tp(edges[1][0], free_slots);
  }
  return stg;
}

TEST(StateGraph, MultiTokenSpecMatchesReferenceExploration) {
  const Stg stg = bounded_buffers();
  ASSERT_EQ(stg.num_places() % 8, 2);
  const StateGraph sg = StateGraph::build(stg);

  // Reference: a plain BFS over an ordered map of owned markings, firing
  // enabled transitions in id order, tracking switching parity per state.
  std::map<Marking, int> id_of;
  std::vector<Marking> markings{stg.initial_marking()};
  std::vector<std::uint64_t> parity{0};
  std::vector<std::vector<SgEdge>> out(1);
  std::vector<int> depth{0};
  id_of.emplace(markings[0], 0);
  for (std::size_t s = 0; s < markings.size(); ++s) {
    for (int t : stg.enabled_transitions(markings[s])) {
      const Marking next = stg.fire(markings[s], t);
      auto [it, inserted] = id_of.emplace(next, static_cast<int>(markings.size()));
      if (inserted) {
        markings.push_back(next);
        parity.push_back(parity[s] ^
                         (std::uint64_t{1} << stg.transition(t).label->signal));
        out.emplace_back();
        depth.push_back(depth[s] + 1);
      }
      out[s].push_back(SgEdge{t, it->second});
    }
  }
  std::vector<int> levels(depth.back() + 1, 0);
  for (int d : depth) ++levels[d];

  ASSERT_EQ(sg.num_states(), static_cast<int>(markings.size()));
  EXPECT_EQ(sg.level_sizes(), levels);
  for (int s = 0; s < sg.num_states(); ++s) {
    ASSERT_EQ(sg.marking_copy(s), markings[s]) << "state " << s;
    EXPECT_EQ(sg.code(s), sg.initial_code() ^ parity[s]) << "state " << s;
    ASSERT_EQ(sg.out_degree(s), static_cast<int>(out[s].size()));
    for (int i = 0; i < sg.out_degree(s); ++i) {
      EXPECT_EQ(sg.out_edges(s)[i].transition, out[s][i].transition);
      EXPECT_EQ(sg.out_edges(s)[i].state, out[s][i].state);
    }
  }
  // Some place really holds more than one token.
  bool multi = false;
  for (const Marking& m : markings)
    multi |= std::any_of(m.begin(), m.end(), [](int v) { return v > 1; });
  EXPECT_TRUE(multi);
  // Any graph-level width yields the same graph.
  SgOptions wide;
  wide.threads = 8;
  EXPECT_TRUE(identical_graphs(sg, StateGraph::build(stg, wide)));
}

// One expansion of the initial state can raise two errors: a new state
// past max_states = 1, and a place past the 255-token bound. The edge fired
// first (lower transition id) decides which one, as if every edge were
// fired and inserted on its own.
std::string first_error(bool token_bound_first) {
  Stg stg("order");
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const int b = stg.add_signal("b", SignalKind::kOutput);
  const auto new_state_edge = [&] {
    const int t = stg.add_transition(Edge{a, Polarity::kRise});
    stg.add_arc_pt(stg.add_place("qa", 1), t);
  };
  const auto overflow_edge = [&] {
    const int t = stg.add_transition(Edge{b, Polarity::kRise});
    stg.add_arc_pt(stg.add_place("qb", 1), t);
    stg.add_arc_tp(t, stg.add_place("full", 255));
  };
  if (token_bound_first) {
    overflow_edge();
    new_state_edge();
  } else {
    new_state_edge();
    overflow_edge();
  }
  SgOptions opts;
  opts.max_states = 1;
  try {
    StateGraph::build(stg, opts);
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(StateGraph, FirstEdgeDecidesBetweenStateCapAndTokenBound) {
  EXPECT_EQ(first_error(false), "state graph of 'order' exceeds 1 states");
  EXPECT_EQ(first_error(true), "place 'full' exceeds token bound");
}

TEST(StateGraph, PipelineGrowth) {
  int prev = 0;
  for (int n = 1; n <= 5; ++n) {
    const StateGraph sg = StateGraph::build(pipeline_stg(n));
    EXPECT_GT(sg.num_states(), prev);
    prev = sg.num_states();
  }
  EXPECT_EQ(StateGraph::build(pipeline_stg(1)).num_states(), 4);
}

TEST(StateGraph, ExcitationClosesOverSilent) {
  const Stg stg = parse_stg_string(R"(
.model d
.inputs a
.outputs z
.dummy e
.graph
a+ e
e z+
z+ a-
a- z-
z- a+
.marking { <z-,a+> }
.end
)");
  const StateGraph sg = StateGraph::build(stg);
  // State after a+ fires: only e is directly enabled, but z+ must be
  // excited through the silent closure.
  const int s1 = sg.successor(0, Edge{stg.signal_id("a"), Polarity::kRise});
  ASSERT_GE(s1, 0);
  EXPECT_TRUE(sg.excited(s1, Edge{stg.signal_id("z"), Polarity::kRise}));
}

TEST(Analysis, CelementIsCleanAndPersistent) {
  const StateGraph sg = StateGraph::build(celement_stg());
  const SgAnalysis a = analyze(sg);
  EXPECT_TRUE(a.speed_independent());
  EXPECT_TRUE(a.has_csc());
}

TEST(Analysis, FifoHasCscConflict) {
  const StateGraph sg = StateGraph::build(fifo_stg());
  const SgAnalysis a = analyze(sg);
  EXPECT_TRUE(a.speed_independent());
  EXPECT_FALSE(a.has_csc());
  // The conflict involves output ro (pending-data state vs idle state).
  bool ro_conflict = false;
  const int ro = fifo_stg().signal_id("ro");
  for (const auto& c : a.csc_conflicts) {
    if (c.differing_signals >> ro & 1) ro_conflict = true;
  }
  EXPECT_TRUE(ro_conflict);
}

TEST(Analysis, FifoCscSpecIsClean) {
  const StateGraph sg = StateGraph::build(fifo_csc_stg());
  const SgAnalysis a = analyze(sg);
  EXPECT_TRUE(a.speed_independent())
      << describe(sg, a.persistency.front());
  EXPECT_TRUE(a.has_csc()) << describe(sg, a.csc_conflicts.front());
}

TEST(Analysis, ToggleHasCscConflict) {
  const StateGraph sg = StateGraph::build(toggle_stg());
  EXPECT_FALSE(analyze(sg).has_csc());
}

TEST(Analysis, VmeHasCscConflict) {
  const StateGraph sg = StateGraph::build(vme_stg());
  EXPECT_FALSE(analyze(sg).has_csc());
}

TEST(Analysis, PipelinesAreClean) {
  for (int n = 1; n <= 4; ++n) {
    const StateGraph sg = StateGraph::build(pipeline_stg(n));
    const SgAnalysis a = analyze(sg);
    EXPECT_TRUE(a.speed_independent()) << "pipeline " << n;
    EXPECT_TRUE(a.has_csc()) << "pipeline " << n;
  }
}

TEST(Encode, InsertStateSignalTransform) {
  const Stg spec = fifo_stg();
  const int lo_p = spec.find_transition("lo+");
  const int lo_m = spec.find_transition("lo-");
  const Stg inserted = insert_state_signal(spec, "x", lo_m, lo_p);
  EXPECT_EQ(inserted.num_signals(), spec.num_signals() + 1);
  EXPECT_EQ(inserted.num_transitions(), spec.num_transitions() + 2);
  // Still a consistent net: x alternates with lo.
  EXPECT_NO_THROW(StateGraph::build(inserted));
}

TEST(Encode, SolvesToggle) {
  const EncodeResult r = solve_csc(toggle_stg());
  EXPECT_TRUE(r.solved);
  EXPECT_GE(r.signals_added, 1);
  const StateGraph sg = StateGraph::build(r.stg);
  EXPECT_TRUE(analyze(sg).has_csc());
}

TEST(Encode, DecoupledFifoIsBeyondPureInsertion) {
  // The fully-decoupled FIFO cannot be given CSC by toggle insertion alone:
  // any inserted signal pulses completely inside the straggler window, so
  // the codes stay ambiguous. This is exactly why the paper reaches for
  // relative timing (the RT flow prunes the straggler states instead).
  const EncodeResult r = solve_csc(fifo_stg());
  EXPECT_FALSE(r.solved);
  EXPECT_FALSE(r.log.empty());
}

TEST(Encode, FifoSiSpecNeedsNoInsertion) {
  const EncodeResult r = solve_csc(fifo_si_stg());
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.signals_added, 0);
}

TEST(Encode, SolvesVme) {
  const EncodeResult r = solve_csc(vme_stg());
  EXPECT_TRUE(r.solved);
  EXPECT_TRUE(analyze(StateGraph::build(r.stg)).has_csc());
}

TEST(Encode, NoOpOnCleanSpec) {
  const EncodeResult r = solve_csc(celement_stg());
  EXPECT_TRUE(r.solved);
  EXPECT_EQ(r.signals_added, 0);
}

class PipelineParam : public ::testing::TestWithParam<int> {};

TEST_P(PipelineParam, CodesAreConsistentWithEdges) {
  // Property: along every edge labelled s+/s-, exactly signal s flips in
  // the code, and in the right direction.
  const Stg stg = pipeline_stg(GetParam());
  const StateGraph sg = StateGraph::build(stg);
  for (int s = 0; s < sg.num_states(); ++s) {
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = stg.transition(t).label;
      if (!label) continue;
      const std::uint64_t diff = sg.code(s) ^ sg.code(to);
      EXPECT_EQ(diff, std::uint64_t{1} << label->signal);
      EXPECT_EQ(sg.value(s, label->signal),
                label->pol == Polarity::kFall);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PipelineParam, ::testing::Values(1, 2, 3, 4));


TEST(Builders, CallElementFreeChoice) {
  const Stg call = call_stg();
  const StateGraph sg = StateGraph::build(call);
  EXPECT_EQ(sg.num_states(), 7);  // idle + 2 branches x 3 states
  const SgAnalysis a = analyze(sg);
  EXPECT_TRUE(a.speed_independent());  // input choice is legal
  EXPECT_TRUE(a.has_csc());
}

TEST(Dot, StgExportContainsStructure) {
  const std::string dot = stg_to_dot(celement_stg());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("label=\"c+\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
}

TEST(Dot, SgExportHasOneNodePerState) {
  const StateGraph sg = StateGraph::build(celement_stg());
  const std::string dot = sg_to_dot(sg);
  int nodes = 0;
  for (std::size_t pos = 0; (pos = dot.find("[label=\"", pos)) != std::string::npos; ++pos)
    ++nodes;
  EXPECT_GE(nodes, sg.num_states());
}

}  // namespace
}  // namespace rtcad
