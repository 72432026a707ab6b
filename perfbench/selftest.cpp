// perfbench_selftest — the benchmark's own tests. Run from the repository
// root (the gate and serve tests read specs/):
//
//   python3 perfbench/run.py --selftest
//
// (or perfbench_selftest [WORK_DIR]; scratch daemons live under WORK_DIR,
// default .bench_build).
//
// Covers the edges of the tail-percentile rule, the golden gate catching a
// one-byte change, self-time arithmetic on synthetic spans, and the seeded
// serve plan (same seed, same plan, same observed hit/miss counts against
// a real in-process daemon). Exit code 0 when every check passes.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core.hpp"
#include "flow/service.hpp"

namespace pb = perfbench;

namespace {

int failures = 0;
std::string work_dir = ".bench_build";

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median() {
  EXPECT(pb::median({}) == 0);
  EXPECT(pb::median({3}) == 3);
  EXPECT(pb::median({4, 1, 3}) == 3);
  EXPECT(pb::median({4, 1, 3, 2}) == 2.5);
}

void test_tail_rule() {
  // Under 100 samples no rung has 10 samples beyond it: omitted.
  EXPECT(!pb::tail_of({}).present);
  EXPECT(!pb::tail_of(ramp(99)).present);
  EXPECT(pb::tail_of(ramp(99)).samples == 99);
  // 100 samples: p90 is rank 90, exactly 10 beyond.
  const pb::Tail t100 = pb::tail_of(ramp(100));
  EXPECT(t100.present && t100.percentile == 90 && t100.value == 90 &&
         t100.beyond == 10);
  // 999: p99 would leave 9 beyond (rank ceil(989.01) = 990), so p90.
  const pb::Tail t999 = pb::tail_of(ramp(999));
  EXPECT(t999.present && t999.percentile == 90 && t999.beyond == 99);
  // 1000: p99 at rank 990 with 10 beyond.
  const pb::Tail t1000 = pb::tail_of(ramp(1000));
  EXPECT(t1000.percentile == 99 && t1000.value == 990 && t1000.beyond == 10);
  // 10000: p99.9 at rank 9990.
  const pb::Tail t10k = pb::tail_of(ramp(10000));
  EXPECT(near(t10k.percentile, 99.9) && t10k.value == 9990 &&
         t10k.beyond == 10);
  // A single huge outlier never becomes the tail: it is beyond the rank.
  std::vector<double> spiky(1000, 1.0);
  spiky[0] = 1e9;
  EXPECT(pb::tail_of(spiky).value == 1.0);
}

void test_median_of_repeats() {
  int prepared = 0, ran = 0;
  pb::median_of_repeats([&] { ++ran; }, [&] { ++prepared; }, 7, 7, 0);
  EXPECT(ran == 7 && prepared == 7);
}

void test_gate() {
  const std::string doc =
      "{\n  \"corpus\": 2,\n  \"items\": [\n"
      "    {\"name\": \"specs/a.g\", \"ok\": true, \"states\": 7},\n"
      "    {\"name\": \"specs/b.g\", \"ok\": true, \"states\": 12}\n"
      "  ]\n}\n";
  const auto records = pb::golden_records(doc);
  EXPECT(records.size() == 2);
  EXPECT(records.at("specs/a.g") ==
         "{\"name\": \"specs/a.g\", \"ok\": true, \"states\": 7}");
  EXPECT(records.at("specs/b.g") ==
         "{\"name\": \"specs/b.g\", \"ok\": true, \"states\": 12}");

  // Every record of the checked-in goldens: equal passes, and a flip of
  // any single byte is caught as a failed operation.
  for (const char* path : {"specs/golden.json", "specs/golden_backend.json"}) {
    const auto golden = pb::golden_records(pb::read_file(path));
    EXPECT(golden.size() >= 19);
    pb::Gate gate;
    for (const auto& [name, record] : golden) {
      gate.expect_bytes(record, record, name);
      for (std::size_t at : {std::size_t{0}, record.size() / 2,
                             record.size() - 1}) {
        std::string flipped = record;
        flipped[at] ^= 0x01;
        gate.expect_bytes(flipped, record, name + " (flipped byte)");
      }
    }
    EXPECT(gate.attempted() == 4 * static_cast<long long>(golden.size()));
    EXPECT(gate.failed() == 3 * static_cast<long long>(golden.size()));
  }
}

void test_self_time() {
  // root [0,10]: children [1,3] and [2,5] overlap (union 4 ms) and [8,12]
  // runs past the end (2 ms inside); the grandchild [1,2] is not root's.
  const std::vector<pb::Span> spans = {
      {"root", 0, 10, -1, 0},  {"a", 1, 3, 0, 0}, {"b", 2, 5, 0, 0},
      {"c", 8, 12, 0, 0},      {"a.1", 1, 2, 1, 0},
      {"other", 20, 30, -1, 1},
  };
  const std::vector<double> self = pb::self_times(spans);
  EXPECT(near(self[0], 10 - 4 - 2));
  EXPECT(near(self[1], 2 - 1));
  EXPECT(near(self[2], 3));
  EXPECT(near(self[3], 4));
  EXPECT(near(self[4], 1));
  EXPECT(near(self[5], 10));

  // ScopedSpan nesting on one thread, and the no-op null tracer.
  pb::Tracer tracer;
  {
    pb::ScopedSpan outer(&tracer, "outer", 5);
    pb::ScopedSpan inner(&tracer, "inner", 5);
    EXPECT(pb::ScopedSpan::current() == inner.id());
    EXPECT(pb::ScopedSpan::current_unit() == 5);
  }
  EXPECT(pb::ScopedSpan::current() == -1);
  { pb::ScopedSpan none(nullptr, "none"); }
  const std::vector<pb::Span> got = tracer.spans();
  EXPECT(got.size() == 2 && got[1].parent == 0 && got[0].parent == -1);
  EXPECT(got[0].end >= got[1].end && got[1].start >= got[0].start);
}

void test_seeds() {
  EXPECT(pb::seeded_order(32, 7) == pb::seeded_order(32, 7));
  EXPECT(pb::seeded_order(32, 7) != pb::seeded_order(32, 8));
  std::vector<std::size_t> sorted = pb::seeded_order(32, 7);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT(sorted[i] == i);
}

/// Counts of a plan prefix: {hits, misses}.
std::pair<int, int> plan_counts(std::uint64_t seed, int n, int specs) {
  int hits = 0, misses = 0;
  for (int i = 0; i < n; ++i)
    (pb::plan_request(seed, static_cast<std::uint64_t>(i), specs).miss
         ? misses
         : hits) += 1;
  return {hits, misses};
}

void test_serve_plan() {
  for (std::uint64_t i = 0; i < 1000; ++i)
    EXPECT(pb::plan_request(3, i, 19) == pb::plan_request(3, i, 19));
  const auto [hits, misses] = plan_counts(3, 20000, 19);
  EXPECT(misses > 20000 / pb::kServeMissOneIn / 2 &&
         misses < 20000 / pb::kServeMissOneIn * 2);
  bool differs = false;
  for (std::uint64_t i = 0; i < 100; ++i)
    differs |= !(pb::plan_request(3, i, 19) == pb::plan_request(4, i, 19));
  EXPECT(differs);
  EXPECT(pb::miss_max_states(0) > (std::size_t{1} << 20));
  EXPECT(pb::miss_max_states(1) != pb::miss_max_states(2));
}

/// Replay the first `n` plan requests of `seed` against a fresh daemon;
/// returns observed {hits, misses}.
std::pair<int, int> replay(std::uint64_t seed, int n, int run) {
  const std::vector<std::string> files = {"specs/celement.g", "specs/fifo.g",
                                          "specs/toggle.g"};
  const std::string dir = work_dir + "/selftest-serve-" +
                          std::to_string(getpid()) + "-" + std::to_string(run);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  rtcad::ServeOptions so;
  so.socket_path = dir + "/s.sock";
  so.cache_dir = dir + "/store";
  so.budget.corpus = 1;
  rtcad::FlowService service(so);
  service.start();
  const rtcad::Endpoint ep = rtcad::Endpoint::unix_path(so.socket_path);
  const auto submit = [&](int spec, std::size_t max_states) {
    rtcad::SubmitRequest req;
    req.name = files[static_cast<std::size_t>(spec)];
    req.spec_text = pb::read_file(req.name);
    req.max_states = max_states;
    return rtcad::serve_submit(ep, req).cache_status;
  };
  for (int s = 0; s < 3; ++s) submit(s, 0);  // warm
  int hits = 0, misses = 0;
  for (int i = 0; i < n; ++i) {
    const pb::PlannedRequest p =
        pb::plan_request(seed, static_cast<std::uint64_t>(i), 3);
    const std::string status =
        submit(p.spec, p.miss ? pb::miss_max_states(i) : 0);
    hits += status == "hit";
    misses += status == "miss";
  }
  service.stop();
  std::filesystem::remove_all(dir);
  return {hits, misses};
}

void test_serve_replay() {
  const int n = 120;
  const std::pair<int, int> planned = plan_counts(11, n, 3);
  const std::pair<int, int> first = replay(11, n, 0);
  const std::pair<int, int> second = replay(11, n, 1);
  EXPECT(first == planned);
  EXPECT(second == first);
  EXPECT(planned.second > 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) work_dir = argv[1];
  test_median();
  test_tail_rule();
  test_median_of_repeats();
  test_gate();
  test_self_time();
  test_seeds();
  test_serve_plan();
  test_serve_replay();
  if (failures) {
    std::fprintf(stderr, "selftest: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
