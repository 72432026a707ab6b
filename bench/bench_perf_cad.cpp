// CAD-algorithm scaling microbenchmarks (google-benchmark): reachability,
// analysis, reduction and synthesis on parameterized pipeline specs. These
// quantify the explicit-state design decision recorded in DESIGN.md.
#include <benchmark/benchmark.h>

#include "flow/flow.hpp"
#include "logic/minimize.hpp"
#include "rt/generate.hpp"
#include "rt/reduce.hpp"
#include "sg/analysis.hpp"
#include "stg/builders.hpp"
#include "util/rng.hpp"

namespace {

using namespace rtcad;

void BM_Reachability(benchmark::State& state) {
  const Stg stg = pipeline_stg(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(StateGraph::build(stg).num_states());
  }
  state.counters["states"] = static_cast<double>(
      StateGraph::build(stg).num_states());
}
BENCHMARK(BM_Reachability)->DenseRange(2, 10, 2);

void BM_Analysis(benchmark::State& state) {
  const StateGraph sg =
      StateGraph::build(pipeline_stg(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze(sg).csc_conflict_count);
  }
}
BENCHMARK(BM_Analysis)->DenseRange(2, 8, 2);

void BM_Reduce(benchmark::State& state) {
  const StateGraph sg =
      StateGraph::build(pipeline_stg(static_cast<int>(state.range(0))));
  GenerateOptions g;
  g.outputs_beat_inputs = true;
  const auto as = generate_assumptions(sg, g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce(sg, as).sg.num_states());
  }
}
BENCHMARK(BM_Reduce)->DenseRange(2, 8, 2);

void BM_SiSynthesis(benchmark::State& state) {
  const StateGraph sg =
      StateGraph::build(pipeline_stg(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize_si(sg).netlist.num_gates());
  }
}
BENCHMARK(BM_SiSynthesis)->DenseRange(2, 6, 2);

void BM_Minimize(benchmark::State& state) {
  Rng rng(5);
  const int nvars = static_cast<int>(state.range(0));
  TruthTable f(nvars);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    const double p = rng.uniform();
    if (p < 0.3)
      f.set_on(m);
    else if (p < 0.5)
      f.set_dc(m);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimize(f).num_literals());
  }
}
BENCHMARK(BM_Minimize)->DenseRange(4, 10, 2);

// Shaped like derive_functions: a few reachable codes (2n OFF, n ON), every
// unreachable code a don't-care.
void BM_MinimizeSparseOff(benchmark::State& state) {
  Rng rng(5);
  const int nvars = static_cast<int>(state.range(0));
  TruthTable f(nvars);
  f.fill_unspecified_with_dc();
  for (int i = 0; i < 2 * nvars; ++i)
    f.set_off(static_cast<std::uint32_t>(rng.below(f.size())));
  for (int i = 0; i < nvars; ++i) {
    const auto m = static_cast<std::uint32_t>(rng.below(f.size()));
    if (f.is_dc(m)) f.set_on(m);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimize(f).num_literals());
  }
}
BENCHMARK(BM_MinimizeSparseOff)->DenseRange(8, 16, 2);

void BM_FullRtFlow(benchmark::State& state) {
  const Stg spec = fifo_csc_stg();
  FlowOptions opts;
  opts.mode = FlowMode::kRelativeTiming;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_flow(spec, opts).literals());
  }
}
BENCHMARK(BM_FullRtFlow);

}  // namespace

BENCHMARK_MAIN();
