// Figures 3-7: the FIFO-controller case study, traced circuit by circuit.
//   Fig 3: the specification STG.
//   Fig 4: speed-independent cell.
//   Fig 5: RT cell with fully automatic assumptions (state signal x off
//          the critical path; five orderings, one structurally dependent).
//   Fig 6: RT cell with user (ring) assumptions — unfooted dominoes.
//   Fig 7: pulse-mode cell (handshakes replaced by 4 protocol arcs).
#include <cstdio>

#include "flow/flow.hpp"
#include "rt/assumption.hpp"
#include "sg/analysis.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "synth/pulse.hpp"

using namespace rtcad;

int main() {
  bool ok = true;

  std::puts("=== Figure 3: FIFO controller specification ===");
  const Stg fifo = fifo_stg();
  std::printf("%s\n", write_stg(fifo).c_str());
  const StateGraph sg = StateGraph::build(fifo);
  const SgAnalysis an = analyze(sg);
  std::printf("states=%d, CSC conflicts=%zu (pending-data vs idle: the "
              "conflict timing-aware encoding resolves)\n\n",
              sg.num_states(), an.csc_conflict_count);
  ok &= !an.has_csc();

  std::puts("=== Figure 4: speed-independent cell ===");
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  const FlowResult r4 = run_flow(fifo_csc_stg(), si);
  std::printf("%s", r4.netlist().to_text().c_str());
  std::printf("transistors=%d (paper: 39)\n\n",
              r4.netlist().transistor_count());

  std::puts("=== Figure 5: RT cell, fully automatic assumptions ===");
  FlowOptions rt;
  rt.mode = FlowMode::kRelativeTiming;
  const FlowResult r5 = run_flow(fifo_csc_stg(), rt);
  std::printf("%s", r5.netlist().to_text().c_str());
  int dependent = 0;
  for (const auto& c : r5.rt->constraints) {
    std::printf("  constraint: %-22s [%s]%s\n",
                to_string(r5.spec, c).c_str(), to_string(c.origin),
                c.dependent ? " (dependent pair)" : "");
    if (c.dependent) ++dependent;
  }
  std::printf("constraints=%zu (paper: 5, one pair dependent); the set "
              "includes the paper's most stringent \"x+ before ri-\"\n",
              r5.rt->constraints.size());
  // Response time: lo is a single domino gate from li.
  const int lo_depth = r5.netlist().logic_depth(r5.netlist().find_net("lo"));
  std::printf("response depth li->lo = %d gate (paper: one domino gate)\n\n",
              lo_depth);
  ok &= lo_depth == 1 && r5.rt->constraints.size() >= 4;

  std::puts("=== Figure 6: RT cell, ring (user) assumptions ===");
  FlowOptions rt6;
  rt6.mode = FlowMode::kRelativeTiming;
  rt6.rt.generate.outputs_beat_inputs = true;
  rt6.rt.allow_unfooted = true;
  rt6.rt.user_assumptions = {parse_assumption(fifo, "ri- before li+"),
                             parse_assumption(fifo, "ri+ before li+"),
                             parse_assumption(fifo, "li- before ri-")};
  const FlowResult r6 = run_flow(fifo_stg(), rt6);
  std::printf("%s", r6.netlist().to_text().c_str());
  int user = 0, automatic = 0, lazy = 0;
  for (const auto& c : r6.rt->constraints) {
    if (c.origin == RtOrigin::kUser) ++user;
    if (c.origin == RtOrigin::kAutomatic) ++automatic;
    if (c.origin == RtOrigin::kLazy) ++lazy;
  }
  std::printf("constraints: %d user + %d automatic + %d lazy "
              "(paper: 1 user + 2 automatic on its less decoupled spec); "
              "no state signal needed, unfooted dominoes, %d transistors "
              "(paper: 20)\n\n",
              user, automatic, lazy, r6.netlist().transistor_count());
  ok &= r6.state_signals_added == 0 &&
        r6.netlist().transistor_count() <= 20;

  std::puts("=== Figure 7: pulse-mode cell ===");
  const PulseFifoResult r7 = pulse_fifo_netlist();
  std::printf("%s", r7.netlist.to_text().c_str());
  for (const auto& c : r7.protocol_constraints)
    std::printf("  %s\n", c.c_str());
  std::printf("transistors=%d (paper: 17); 1 causal arc + %zu RT protocol "
              "constraints (paper Figure 7(b): arcs 1-4)\n",
              r7.netlist.transistor_count(),
              r7.protocol_constraints.size() - 1);
  ok &= r7.netlist.transistor_count() == 17;

  std::printf("\nshape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
