// State graphs at any graph thread count: exploration is one sequential
// BFS and only the excitation sweep spreads across workers, so a build must
// be indistinguishable at every thread count — same ids, same CSR layout,
// same derived structures, same errors. These tests are the enforcement
// teeth behind CI's golden determinism matrix. The pipeline14 stress case
// (above the sweep's size floor) also runs in the clang RTCAD_SANITIZE=ON
// job (ASan/UBSan: memory errors) and the RTCAD_TSAN=ON job
// (ThreadSanitizer: data races in the excitation sweep and worker pool).
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "util/workpool.hpp"

namespace rtcad {
namespace {

// Full structural equality through the public API: states (marking + code),
// forward CSR (ids, transitions, successors), the derived reverse CSR, and
// the BFS level decomposition.
void expect_identical(const StateGraph& a, const StateGraph& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.level_sizes(), b.level_sizes());
  for (int s = 0; s < a.num_states(); ++s) {
    ASSERT_EQ(a.marking_copy(s), b.marking_copy(s)) << "state " << s;
    ASSERT_EQ(a.code(s), b.code(s)) << "state " << s;
    ASSERT_EQ(a.out_degree(s), b.out_degree(s)) << "state " << s;
    for (int i = 0; i < a.out_degree(s); ++i) {
      ASSERT_EQ(a.out_edges(s)[i].transition, b.out_edges(s)[i].transition)
          << "out edge " << i << " of state " << s;
      ASSERT_EQ(a.out_edges(s)[i].state, b.out_edges(s)[i].state)
          << "out edge " << i << " of state " << s;
    }
    ASSERT_EQ(a.in_degree(s), b.in_degree(s)) << "state " << s;
    for (int i = 0; i < a.in_degree(s); ++i) {
      ASSERT_EQ(a.in_edges(s)[i].transition, b.in_edges(s)[i].transition)
          << "in edge " << i << " of state " << s;
      ASSERT_EQ(a.in_edges(s)[i].state, b.in_edges(s)[i].state)
          << "in edge " << i << " of state " << s;
    }
  }
}

StateGraph build_with_threads(const Stg& stg, int threads) {
  SgOptions opts;
  opts.threads = threads;
  return StateGraph::build(stg, opts);
}

// The acceptance stress case: the largest built-in spec (2^15 states),
// sequential vs 8 workers, compared edge-for-edge including the reverse
// CSR.
TEST(ParallelStateGraph, Pipeline14IdenticalAt1And8Threads) {
  const Stg big = pipeline_stg(14);
  const StateGraph t1 = build_with_threads(big, 1);
  const StateGraph t8 = build_with_threads(big, 8);
  EXPECT_EQ(t1.num_states(), 1 << 15);
  expect_identical(t1, t8);
}

TEST(ParallelStateGraph, BuiltinSpecsIdenticalAcrossThreadCounts) {
  const Stg specs[] = {fifo_stg(),    fifo_csc_stg(), fifo_si_stg(),
                       celement_stg(), toggle_stg(),   vme_stg(),
                       call_stg(),     pipeline_stg(6)};
  for (const Stg& stg : specs) {
    const StateGraph t1 = build_with_threads(stg, 1);
    for (int threads : {2, 3, 8}) {
      SCOPED_TRACE(stg.name() + " at " + std::to_string(threads) +
                   " threads");
      expect_identical(t1, build_with_threads(stg, threads));
    }
  }
}

// Errors must be deterministic too: the one BFS loop runs every per-edge
// check in (parent-id, transition-index) order at any thread count, so the
// same error (and message) fires at 1 and at 8 threads.
std::string error_of(const Stg& stg, const SgOptions& opts) {
  try {
    StateGraph::build(stg, opts);
    return "";
  } catch (const SpecError& e) {
    return e.what();
  }
}

TEST(ParallelStateGraph, InconsistencyErrorIdenticalAcrossThreads) {
  const Stg bad = parse_stg_string(R"(
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
  SgOptions t1;
  t1.threads = 1;
  SgOptions t8;
  t8.threads = 8;
  const std::string e1 = error_of(bad, t1);
  EXPECT_FALSE(e1.empty());
  EXPECT_EQ(e1, error_of(bad, t8));
}

TEST(ParallelStateGraph, StateCapErrorIdenticalAcrossThreads) {
  const Stg big = pipeline_stg(10);
  SgOptions t1;
  t1.threads = 1;
  t1.max_states = 100;
  SgOptions t8 = t1;
  t8.threads = 8;
  const std::string e1 = error_of(big, t1);
  EXPECT_NE(e1.find("exceeds 100 states"), std::string::npos);
  EXPECT_EQ(e1, error_of(big, t8));
}

TEST(ParallelStateGraph, ZeroStateCapErrorIdenticalAcrossThreads) {
  // Degenerate cap: the loop pushes the initial state unconditionally and
  // throws at the first discovery, rather than skipping expansion outright
  // (that would return a malformed graph instead of the error).
  const Stg stg = celement_stg();
  SgOptions t1;
  t1.threads = 1;
  t1.max_states = 0;
  SgOptions t8 = t1;
  t8.threads = 8;
  const std::string e1 = error_of(stg, t1);
  EXPECT_NE(e1.find("exceeds 0 states"), std::string::npos);
  EXPECT_EQ(e1, error_of(stg, t8));
}

TEST(ParallelStateGraph, TokenBoundErrorIdenticalAcrossThreads) {
  // A cycle that pumps a token into a sink place on every lap overflows the
  // 8-bit token bound after 255 laps; fire_into throws mid-expansion, with
  // the same error at every thread count.
  Stg pump("pump");
  const int a = pump.add_signal("a", SignalKind::kOutput);
  const int rise = pump.add_transition(Edge{a, Polarity::kRise});
  const int fall = pump.add_transition(Edge{a, Polarity::kFall});
  const int p0 = pump.add_place("p0", 1);
  const int sink = pump.add_place("sink", 0);
  pump.add_arc_pt(p0, rise);
  pump.add_arc_tt(rise, fall);
  pump.add_arc_tp(fall, p0);
  pump.add_arc_tp(fall, sink);
  SgOptions t1;
  t1.threads = 1;
  SgOptions t8;
  t8.threads = 8;
  const std::string e1 = error_of(pump, t1);
  EXPECT_NE(e1.find("token bound"), std::string::npos);
  EXPECT_EQ(e1, error_of(pump, t8));
}

// The excitation sweep also parallelises (the transpose is sequential at
// every width); rerunning both passes at 8 workers on a graph big enough
// to take the parallel path must reproduce the sequential bytes —
// including the excitation masks, which identical_graphs compares and
// expect_identical does not.
TEST(ParallelStateGraph, DerivedPassesIdenticalAt8Threads) {
  const Stg big = pipeline_stg(14);  // 139k edges: above the parallel floor
  const StateGraph t1 = build_with_threads(big, 1);
  StateGraph t8 = t1;
  t8.rebuild_reverse_csr(8);
  t8.recompute_excitation(8);
  expect_identical(t1, t8);
  EXPECT_TRUE(identical_graphs(t1, t8));
  // And on a spec with silent transitions (the sequential ε-closure tail
  // after the parallel direct sweep).
  const StateGraph f1 = build_with_threads(fifo_stg(), 1);
  StateGraph f8 = f1;
  f8.rebuild_reverse_csr(8);
  f8.recompute_excitation(8);
  EXPECT_TRUE(identical_graphs(f1, f8));
}

TEST(ParallelStateGraph, ThreadsZeroPicksHardwareConcurrency) {
  const Stg stg = pipeline_stg(6);
  SgOptions t0;
  t0.threads = 0;  // auto
  expect_identical(build_with_threads(stg, 1), StateGraph::build(stg, t0));
}

// --- the shared pool underneath both parallel engines ---------------------

TEST(WorkPool, RunsJobOnEveryWorkerAndIsReusable) {
  WorkPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> ran{0};
    std::atomic<unsigned> workers{0};
    pool.run([&](int worker) {
      ran.fetch_add(1);
      workers.fetch_or(1u << worker);
    });
    EXPECT_EQ(ran.load(), 4);
    EXPECT_EQ(workers.load(), 0xfu);
  }
}

TEST(WorkPool, RethrowsJobExceptionAndStaysUsable) {
  WorkPool pool(3);
  EXPECT_THROW(
      pool.run([](int worker) {
        if (worker == 1) throw SpecError("boom");
      }),
      SpecError);
  std::atomic<int> ran{0};
  pool.run([&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace rtcad
