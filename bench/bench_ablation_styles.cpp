// Section 3 ablation: why Relative Timing? The same FIFO controller through
// the four methodologies the paper compares — speed-independent, extended
// burst mode (fundamental mode), metric-timed (ATACS-style windows), and
// relative timing — plus the effect of each RT ingredient (assumption
// classes, laziness) on state count and logic.
#include <cstdio>

#include "bm/burstmode.hpp"
#include "flow/flow.hpp"
#include "rt/assumption.hpp"
#include "rt/generate.hpp"
#include "rt/reduce.hpp"
#include "sg/analysis.hpp"
#include "stg/builders.hpp"
#include "synth/pulse.hpp"
#include "timed/timedreduce.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace rtcad;

int main() {
  bool ok = true;
  std::puts("=== Section 3 ablation: methodology comparison on the FIFO ===");

  TextTable t({"methodology", "states", "literals", "transistors"});
  int si_trans = 0, rt_trans = 0;
  {
    FlowOptions o;
    o.mode = FlowMode::kSpeedIndependent;
    const FlowResult r = run_flow(fifo_csc_stg(), o);
    si_trans = r.netlist().transistor_count();
    t.add_row({"speed-independent", strprintf("%d", r.states),
               strprintf("%d", r.literals()), strprintf("%d", si_trans)});
  }
  {
    const BmSynthResult r = synthesize_bm(fifo_bm());
    t.add_row({"burst-mode (XBM/3D)", "-", strprintf("%d", r.literals),
               strprintf("%d", r.netlist.transistor_count())});
  }
  {
    const StateGraph sg = StateGraph::build(fifo_csc_stg());
    const TimedReduceResult r = timed_reduce(sg);
    t.add_row({"metric-timed (ATACS-like)",
               strprintf("%d", r.sg.num_states()), "-", "-"});
  }
  {
    FlowOptions o;
    o.mode = FlowMode::kRelativeTiming;
    const FlowResult r = run_flow(fifo_csc_stg(), o);
    rt_trans = r.netlist().transistor_count();
    t.add_row({"relative timing", strprintf("%d", r.states_reduced),
               strprintf("%d", r.literals()), strprintf("%d", rt_trans)});
  }
  t.print();
  ok &= rt_trans < si_trans;

  std::puts("\n=== RT ingredient ablation on the decoupled FIFO spec ===");
  const Stg f = fifo_stg();
  const StateGraph sg = StateGraph::build(f);
  TextTable a({"configuration", "states", "CSC conflicts"});
  auto row = [&](const char* name, const std::vector<RtAssumption>& as) {
    const ReduceResult red = reduce(sg, as);
    const SgAnalysis an = analyze(red.sg);
    a.add_row({name, strprintf("%d", red.sg.num_states()),
               strprintf("%zu", an.csc_conflict_count)});
    return an.csc_conflict_count;
  };
  const auto none = row("no assumptions (eager-e only)", {});
  GenerateOptions obi;
  obi.outputs_beat_inputs = true;
  auto auto_as = generate_assumptions(sg, obi);
  const auto with_auto = row("+ automatic (outputs beat inputs)", auto_as);
  std::vector<RtAssumption> all = {parse_assumption(f, "ri- before li+"),
                                   parse_assumption(f, "ri+ before li+"),
                                   parse_assumption(f, "li- before ri-")};
  for (auto& x : auto_as) all.push_back(x);
  const auto with_user = row("+ user ring assumptions", all);
  a.print();
  ok &= none > 0 && with_auto > 0 && with_user == 0;
  std::puts("\n(only the combination of automatic and user assumptions "
            "resolves CSC without a state signal — the Figure 6 story)");

  std::printf("\nshape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
