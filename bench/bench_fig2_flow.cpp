// Figure 2: the RT synthesis design flow, exercised end-to-end on the
// benchmark suite. For each specification the bench reports every stage:
// reachability, state encoding, assumption generation, lazy state graph,
// logic synthesis, back-annotation. A second section times state-graph
// construction against a replica of the seed implementation (per-state
// std::unordered_map lookups, per-edge marking/vector allocation) on the
// largest built-in spec, then times the whole CSR hot path —
// build + verify (analysis) + reduce — and emits a machine-readable
// `BENCH_JSON:` line so the perf trajectory can be diffed across PRs.
// Every parallel pass is timed at 1 worker and at the machine's width
// (WorkPool::effective_threads(0)); the `_tN_us` keys hold the wide run
// and `threads` says how wide it was.
#include <chrono>
#include <cstdio>
#include <functional>
#include <unordered_map>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "flow/flow.hpp"
#include "rt/generate.hpp"
#include "rt/reduce.hpp"
#include "sg/encode.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/workpool.hpp"

using namespace rtcad;

namespace {

struct MarkingHash {
  std::size_t operator()(const Marking& m) const { return marking_hash(m); }
};

// Replica of the seed StateGraph::build reachability loop: unordered_map
// visited index, a fresh std::vector from enabled_transitions() per state
// and a fresh Marking from fire() per edge. Kept here as the baseline the
// open-addressed/scratch-buffer overhaul is measured against.
int seed_reachability(const Stg& stg) {
  std::unordered_map<Marking, int, MarkingHash> index;
  std::vector<Marking> markings;
  std::vector<std::vector<std::pair<int, int>>> succ;
  const Marking m0 = stg.initial_marking();
  index.emplace(m0, 0);
  markings.push_back(m0);
  succ.emplace_back();
  std::vector<int> queue{0};
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int si = queue[qi];
    const Marking marking = markings[si];
    for (int t : stg.enabled_transitions(marking)) {
      const Marking next = stg.fire(marking, t);
      const int candidate_id = static_cast<int>(markings.size());
      const auto insertion = index.emplace(next, candidate_id);
      if (insertion.second) {
        markings.push_back(next);
        succ.emplace_back();
        queue.push_back(candidate_id);
      }
      succ[si].emplace_back(t, insertion.first->second);
    }
  }
  return static_cast<int>(markings.size());
}

/// Peak resident set of this process in bytes; -1 where unavailable. The
/// OS-level check on the arena/CSR gauge (which only counts the graph's own
/// arrays).
long long max_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<long long>(ru.ru_maxrss);  // bytes
#else
    return static_cast<long long>(ru.ru_maxrss) * 1024;  // KiB
#endif
  }
#endif
  return -1;
}

double best_of_ms(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  std::puts("=== Figure 2: RT synthesis flow, per-stage report ===\n");
  const int wide = WorkPool::effective_threads(0);

  struct Case {
    const char* name;
    Stg spec;
    FlowOptions opts;
  };
  std::vector<Case> cases;
  {
    FlowOptions si;
    si.mode = FlowMode::kSpeedIndependent;
    FlowOptions rt;
    rt.mode = FlowMode::kRelativeTiming;
    cases.push_back({"fifo_csc/SI", fifo_csc_stg(), si});
    cases.push_back({"fifo_csc/RT", fifo_csc_stg(), rt});
    cases.push_back({"fifo_si/SI", fifo_si_stg(), si});
    cases.push_back({"celement/SI", celement_stg(), si});
    cases.push_back({"toggle/SI", toggle_stg(), si});
    cases.push_back({"vme/SI", vme_stg(), si});
    for (int n : {2, 3, 4}) {
      cases.push_back({"pipeline/SI", pipeline_stg(n), si});
      cases.back().opts.mode = FlowMode::kSpeedIndependent;
    }
  }

  TextTable t({"spec", "mode", "states", "reduced", "csc sig", "literals",
               "trans", "constraints"});
  bool all_ok = true;
  for (auto& c : cases) {
    try {
      const FlowResult r = run_flow(c.spec, c.opts);
      std::printf("--- %s (%s)\n", c.spec.name().c_str(), c.name);
      for (const auto& s : r.stages)
        std::printf("    [%s] %s\n", s.name.c_str(), s.detail.c_str());
      t.add_row({c.spec.name(),
                 c.opts.mode == FlowMode::kRelativeTiming ? "RT" : "SI",
                 strprintf("%d", r.states), strprintf("%d", r.states_reduced),
                 strprintf("%d", r.state_signals_added),
                 strprintf("%d", r.literals()),
                 strprintf("%d", r.netlist().transistor_count()),
                 strprintf("%zu", r.rt ? r.rt->constraints.size() : 0)});
    } catch (const Error& e) {
      std::printf("--- %s FAILED: %s\n", c.name, e.what());
      all_ok = false;
    }
  }
  std::puts("");
  t.print();

  // --- state-graph construction: seed replica vs overhauled hot path ------
  {
    const int stages = 14;  // 2^15 states: the largest built-in spec
    const Stg big = pipeline_stg(stages);
    SgOptions unlimited;
    unlimited.max_states = std::size_t{1} << 22;
    int seed_states = 0, new_states = 0;
    const double seed_ms =
        best_of_ms(3, [&] { seed_states = seed_reachability(big); });
    const double new_ms = best_of_ms(3, [&] {
      new_states = StateGraph::build(big, unlimited).num_states();
    });
    std::printf(
        "\nstate-graph construction, pipeline_stg(%d) (%d states):\n"
        "  seed replica (unordered_map + per-edge alloc): %8.2f ms\n"
        "  overhauled (open-addressed + scratch buffers): %8.2f ms\n"
        "  speedup: %.2fx\n",
        stages, new_states, seed_ms, new_ms, seed_ms / new_ms);
    if (seed_states != new_states) {
      std::printf("state count mismatch: seed %d vs new %d\n", seed_states,
                  new_states);
      all_ok = false;
    }
    // Note: the new build also verifies consistency and assigns codes; the
    // replica does reachability only, so the comparison favors the seed.
  }

  // --- CSC candidate search: sequential vs wide candidate evaluation ------
  // solve_csc rebuilds a full state graph per trigger pair; with
  // candidate-level workers the search must stay byte-identical (same
  // inserted signal, same log) while the wall clock drops on multicore
  // machines.
  double csc_ms = 0, csc_wide_ms = 0;
  std::string csc_spec_name;
  {
    const Stg spec = vme_stg();  // classic CSC benchmark: a real search
    csc_spec_name = spec.name();
    EncodeOptions e1;
    EncodeOptions ew;
    ew.threads = wide;
    EncodeResult r1, rw;
    csc_ms = best_of_ms(3, [&] { r1 = solve_csc(spec, e1); });
    csc_wide_ms = best_of_ms(3, [&] { rw = solve_csc(spec, ew); });
    int evaluated = 0;
    for (const EncodeRoundStats& r : r1.rounds) evaluated += r.candidates;
    std::printf(
        "\nCSC candidate search, %s (%d candidates evaluated, %d signal(s) "
        "inserted):\n"
        "  search (1 thread):   %8.2f ms\n"
        "  search (%d threads): %8.2f ms (%.2fx, identical result)\n",
        spec.name().c_str(), evaluated, r1.signals_added, csc_ms, wide,
        csc_wide_ms, csc_ms / csc_wide_ms);
    if (r1.solved != rw.solved || r1.signals_added != rw.signals_added ||
        write_stg(r1.stg) != write_stg(rw.stg) || r1.log != rw.log) {
      std::printf("CSC search result differs between 1 and %d threads\n",
                  wide);
      all_ok = false;
    }
  }

  // --- whole hot path on the largest built-in spec: build + verify + ------
  // --- reduce, every phase an edge traversal over the CSR arrays ----------
  {
    const int stages = 14;
    const Stg big = pipeline_stg(stages);
    SgOptions unlimited;
    unlimited.max_states = std::size_t{1} << 22;
    GenerateOptions gen;
    gen.outputs_beat_inputs = true;

    StateGraph sg = StateGraph::build(big, unlimited);
    const double build_ms =
        best_of_ms(3, [&] { sg = StateGraph::build(big, unlimited); });
    SgAnalysis verdict;
    const double verify_ms = best_of_ms(3, [&] { verdict = analyze(sg); });
    const auto assumptions = generate_assumptions(sg, gen);
    int reduced_states = 0;
    const double reduce_ms = best_of_ms(3, [&] {
      reduced_states = reduce(sg, assumptions).sg.num_states();
    });

    const double total_ms = build_ms + verify_ms + reduce_ms;
    const long long ns_per_edge =
        static_cast<long long>(total_ms * 1e6 / sg.num_edges() + 0.5);
    std::printf(
        "\nfull hot path, pipeline_stg(%d): %d states, %d edges, "
        "%d BFS levels (peak frontier %d)\n"
        "  build:  %8.2f ms\n"
        "  verify: %8.2f ms (%zu persistency, %zu CSC conflicts)\n"
        "  reduce: %8.2f ms (-> %d states)\n"
        "  total:  %8.2f ms, %lld ns/edge\n",
        stages, sg.num_states(), sg.num_edges(), sg.num_levels(),
        sg.peak_frontier(), build_ms, verify_ms, verdict.persistency_count, verdict.csc_conflict_count,
        reduce_ms, reduced_states, total_ms, ns_per_edge);
    // One greppable line per run; integer microseconds are locale-proof.
    std::printf(
        "BENCH_JSON: {\"name\": \"pipeline%d\", \"states\": %d, "
        "\"edges\": %d, \"threads\": %d, \"build_us\": %lld, "
        "\"verify_us\": %lld, \"reduce_us\": %lld, "
        "\"csc_spec\": \"%s\", \"csc_us\": %lld, "
        "\"csc_tN_us\": %lld, \"ns_per_edge\": %lld}\n",
        stages, sg.num_states(), sg.num_edges(), wide,
        static_cast<long long>(build_ms * 1000 + 0.5),
        static_cast<long long>(verify_ms * 1000 + 0.5),
        static_cast<long long>(reduce_ms * 1000 + 0.5), csc_spec_name.c_str(),
        static_cast<long long>(csc_ms * 1000 + 0.5),
        static_cast<long long>(csc_wide_ms * 1000 + 0.5), ns_per_edge);
    if (reduced_states <= 0 || reduced_states > sg.num_states()) {
      std::printf("reduce produced an implausible state count\n");
      all_ok = false;
    }
  }

  // --- past the 1M-state line: arena build + post-exploration passes ------
  // pipeline_stg(19) has 2^20 states. One build (single rep — the graph
  // dominates the bench's runtime), then the two post-exploration passes
  // re-timed in isolation at 1 worker and at the machine's width, with the
  // wide results structurally compared against the 1-worker graph. The
  // memory gauge (arena + CSR bytes, plus OS max-RSS) rides in the same
  // BENCH_JSON line.
  {
    const int stages = 19;
    const Stg big = pipeline_stg(stages);
    SgOptions o1;
    o1.max_states = std::size_t{1} << 22;

    StateGraph sg = StateGraph::build(big, o1);
    const double build_ms =
        best_of_ms(1, [&] { sg = StateGraph::build(big, o1); });
    const double transpose_ms =
        best_of_ms(2, [&] { sg.rebuild_reverse_csr(1); });
    const double excite_ms =
        best_of_ms(2, [&] { sg.recompute_excitation(1); });
    StateGraph sg_wide = sg;
    const double transpose_wide_ms =
        best_of_ms(2, [&] { sg_wide.rebuild_reverse_csr(wide); });
    const double excite_wide_ms =
        best_of_ms(2, [&] { sg_wide.recompute_excitation(wide); });
    if (!identical_graphs(sg, sg_wide)) {
      std::printf("pipeline%d: parallel passes differ from sequential\n",
                  stages);
      all_ok = false;
    }
    const long long peak_mem =
        static_cast<long long>(sg.arena_bytes() + sg.csr_bytes());
    const long long rss = max_rss_bytes();
    std::printf(
        "\nbig graph, pipeline_stg(%d): %d states, %d edges\n"
        "  build: %8.2f ms\n"
        "  transpose (1 thread / %d threads): %8.2f / %8.2f ms\n"
        "  excite    (1 thread / %d threads): %8.2f / %8.2f ms\n"
        "  graph memory: %lld bytes (arena %zu + CSR %zu), max RSS %lld\n",
        stages, sg.num_states(), sg.num_edges(), build_ms, wide, transpose_ms,
        transpose_wide_ms, wide, excite_ms, excite_wide_ms, peak_mem,
        sg.arena_bytes(), sg.csr_bytes(), rss);
    std::printf(
        "BENCH_JSON: {\"name\": \"pipeline%d\", \"states\": %d, "
        "\"edges\": %d, \"threads\": %d, \"build_us\": %lld, "
        "\"transpose_us\": %lld, \"transpose_tN_us\": %lld, "
        "\"excite_us\": %lld, \"excite_tN_us\": %lld, "
        "\"peak_mem_bytes\": %lld, \"max_rss_bytes\": %lld}\n",
        stages, sg.num_states(), sg.num_edges(), wide,
        static_cast<long long>(build_ms * 1000 + 0.5),
        static_cast<long long>(transpose_ms * 1000 + 0.5),
        static_cast<long long>(transpose_wide_ms * 1000 + 0.5),
        static_cast<long long>(excite_ms * 1000 + 0.5),
        static_cast<long long>(excite_wide_ms * 1000 + 0.5), peak_mem, rss);
  }

  std::printf("\nshape check: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
