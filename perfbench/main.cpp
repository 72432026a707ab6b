// perfbench — the repository's benchmark driver. It links librtcad, calls
// the public API in process and runs one workload per process:
//
//   perfbench --workload corpus|bigraph|serve|sweep --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// Run it from the repository root (it reads specs/). Untraced runs print
// the end-to-end metrics; traced runs print the per-layer metrics and the
// tracing overhead. The last stdout line is the JSON result; the line
// before it is a human summary (seed, unit counts, tail percentile).
// Exit code 0 only when every output matched its reference. README.md
// explains why each workload exists and what each metric should move.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core.hpp"
#include "flow/batchflow.hpp"
#include "flow/cache.hpp"
#include "flow/service.hpp"
#include "flow/sweep.hpp"
#include "sg/analysis.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "util/workpool.hpp"

namespace pb = perfbench;
namespace fs = std::filesystem;
using rtcad::BatchItemResult;
using rtcad::BatchSpec;
using rtcad::FlowContext;
using rtcad::FlowMode;
using rtcad::FlowOptions;
using rtcad::StateGraph;

namespace {

// --- shared plumbing -------------------------------------------------------

/// What one measured phase produced: a latency per unit, the amount of
/// work rate_per_s counts (items, states, requests or variants), and the
/// wall time the units took.
struct Samples {
  std::vector<double> unit_ms;
  double work = 0;
  double busy_s = 0;
};

using Metrics = std::vector<pb::Metric>;

/// The checked-in `.g` corpus, in sorted path order ("specs/arbiter.g").
std::vector<std::string> spec_files() {
  std::vector<std::string> files;
  for (const fs::directory_entry& e : fs::directory_iterator("specs"))
    if (e.path().extension() == ".g")
      files.push_back("specs/" + e.path().filename().string());
  std::sort(files.begin(), files.end());
  if (files.empty()) throw std::runtime_error("no specs/*.g files found");
  return files;
}

FlowContext context(int corpus, int graph, int candidate) {
  FlowContext ctx;
  ctx.budget.corpus = corpus;
  ctx.budget.graph = graph;
  ctx.budget.candidate = candidate;
  return ctx;
}

/// Median duration of the spans named `name`.
double median_span(const std::vector<pb::Span>& spans,
                   const std::string& name) {
  std::vector<double> v;
  for (const pb::Span& s : spans)
    if (s.name == name) v.push_back(s.duration());
  return pb::median(std::move(v));
}

/// Runs `fn` under a span `name` and returns its wall time in ms.
template <class Fn>
double timed(pb::Tracer* tracer, const char* name, long long unit, Fn&& fn) {
  const pb::Clock::time_point t0 = pb::Clock::now();
  {
    pb::ScopedSpan span(tracer, name, unit);
    fn();
  }
  return pb::ms_since(t0);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// What rate_per_s counts, for the summary line.
  virtual const char* rate_counts() const = 0;
  /// Once-per-run work before the first measured unit. Timed as the
  /// median of repeats; teardown() runs untimed before each repeat.
  virtual void setup(pb::Gate& gate) = 0;
  virtual void teardown() {}
  /// Run units until `deadline` (at least one). A tracer records spans
  /// around every call into the program.
  virtual Samples measure(pb::Clock::time_point deadline, pb::Tracer* tracer,
                          pb::Gate& gate) = 0;
  /// Checks done once per run, after the measured phase.
  virtual void check_once(pb::Gate& gate) = 0;
  /// Per-layer metrics: direct layer probes under `tracer`, plus what
  /// the spans of a traced measure() on the same tracer show.
  virtual Metrics layers(pb::Tracer& tracer, pb::Gate& gate) = 0;
};

// --- corpus ----------------------------------------------------------------
//
// Unit: one spec through verify-netlist. One run_batch per pass over the
// 19 checked-in specs (rt mode) plus the 13 built-ins, at corpus threads
// = nproc and graph/candidate threads = 1. Each pass runs the items in its
// own order, drawn from the seed and the pass number: with one order per
// run, where the long mmu and ram_read_sbuf items fall set the pass's
// critical path, and the rate depended on the seed by about 12%.

class Corpus final : public Workload {
 public:
  explicit Corpus(std::uint64_t seed)
      : seed_(seed),
        files_(spec_files()),
        golden_(pb::golden_records(pb::read_file("specs/golden_backend.json"))),
        ctx_(context(pb::nproc(), 1, 1)) {}

  const char* rate_counts() const override { return "specs"; }

  void setup(pb::Gate&) override {
    FlowOptions opts;
    opts.mode = FlowMode::kRelativeTiming;
    opts.stop_after = "verify-netlist";
    std::vector<BatchSpec> all = rtcad::builtin_corpus();
    for (BatchSpec& b : all) b.opts.stop_after = "verify-netlist";
    for (BatchSpec& f : rtcad::load_corpus_files(files_, opts))
      all.push_back(std::move(f));
    items_ = std::move(all);
  }

  Samples measure(pb::Clock::time_point deadline, pb::Tracer* tracer,
                  pb::Gate& gate) override {
    Samples s;
    do {
      const long long pass = passes_++;
      const std::vector<std::size_t> order = pb::seeded_order(
          items_.size(), pb::mix64(seed_) + static_cast<std::uint64_t>(pass));
      std::vector<BatchSpec> batch;
      for (const std::size_t i : order) batch.push_back(std::move(items_[i]));
      std::vector<BatchItemResult> items;
      double pass_ms = 0;
      if (!tracer) {
        rtcad::BatchResult r = rtcad::run_batch(batch, ctx_);
        pass_ms = r.wall_ms;
        items = std::move(r.items);
      } else {
        pass_ms = traced_pass(*tracer, pass, batch, &items);
      }
      for (std::size_t k = 0; k < order.size(); ++k)
        items_[order[k]] = std::move(batch[k]);
      for (const BatchItemResult& item : items) {
        s.unit_ms.push_back(item.wall_ms);
        check(item, gate);
      }
      s.work += static_cast<double>(items.size());
      s.busy_s += pass_ms / 1000.0;
    } while (pb::Clock::now() < deadline);
    return s;
  }

  void check_once(pb::Gate& gate) override {
    for (const std::string& f : files_)
      gate.check(golden_.count(f) == 1,
                 f + " has a record in specs/golden_backend.json");
  }

  Metrics layers(pb::Tracer& tracer, pb::Gate&) override {
    // stg: parse the 19 texts, timed as the median of repeated passes.
    std::vector<std::string> texts;
    for (const std::string& f : files_) texts.push_back(pb::read_file(f));
    long long unit = 0;
    const double parse_s = pb::median_of_repeats(
        [&] {
          for (std::size_t i = 0; i < texts.size(); ++i) {
            pb::ScopedSpan span(&tracer, "parse_stg_string", unit);
            rtcad::parse_stg_string(texts[i], files_[i]);
          }
          ++unit;
        },
        [] {});

    const std::vector<pb::Span> spans = tracer.spans();
    const std::vector<double> self = pb::self_times(spans);
    // Stage spans and item spans carry unit = pass * items + position;
    // fold them to per-pass sums first.
    const long long n = static_cast<long long>(items_.size());
    const auto per_pass = [&](const std::string& name, bool use_self) {
      std::map<long long, double> sums;
      for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name)
          sums[spans[i].unit / n] +=
              use_self ? self[i] : spans[i].duration();
      std::vector<double> v;
      for (const auto& [pass, ms] : sums) v.push_back(ms);
      return pb::median(std::move(v));
    };
    std::vector<double> busy;
    {
      std::map<long long, double> item_sum;
      for (const pb::Span& sp : spans)
        if (sp.name == "run_batch_item") item_sum[sp.unit / n] += sp.duration();
      for (const pb::Span& sp : spans)
        if (sp.name == "run_batch")
          busy.push_back(item_sum[sp.unit] / (sp.duration() * pb::nproc()));
    }
    const double passes =
        std::max<double>(1, static_cast<double>(traced_passes_));
    return {
        {"stg.parse_ms", parse_s * 1000.0, "ms"},
        {"sg.reach_ms", per_pass("stage:reachability", false), "ms"},
        {"sg.encode_ms", per_pass("stage:encode", false), "ms"},
        {"sg.csc_evaluated", static_cast<double>(csc_evaluated_) / passes,
         "count"},
        {"sg.csc_feasible_ratio",
         csc_evaluated_ ? static_cast<double>(csc_feasible_) /
                              static_cast<double>(csc_evaluated_)
                        : 0.0,
         "ratio"},
        {"rt.generate_ms", per_pass("stage:generate-assumptions", false),
         "ms"},
        {"rt.reduce_ms", per_pass("stage:reduce", false), "ms"},
        {"synth.rt_ms", per_pass("stage:synth-rt", false), "ms"},
        {"synth.si_ms", per_pass("stage:synth-si", false), "ms"},
        {"synth.map_ms", per_pass("stage:map", false), "ms"},
        {"synth.size_ms", per_pass("stage:size", false), "ms"},
        {"verify.conformance_ms", per_pass("stage:verify-netlist", false),
         "ms"},
        {"flow.glue_ms", per_pass("run_batch_item", true), "ms"},
        {"util.corpus_busy_frac", pb::median(busy), "ratio"},
    };
  }

 private:
  /// One pass with spans: run_batch's own loop (a WorkPool of corpus
  /// threads claiming items in order) with a span around every
  /// run_batch_item and a span per finished stage from on_stage.
  double traced_pass(pb::Tracer& tracer, long long pass,
                     const std::vector<BatchSpec>& batch,
                     std::vector<BatchItemResult>* items) {
    FlowContext ctx = ctx_;
    ctx.on_stage = [this, &tracer](const rtcad::StageTrace& t) {
      const double end = tracer.now();
      tracer.record("stage:" + t.stage, end - t.wall_ms, end,
                    pb::ScopedSpan::current(),
                    pb::ScopedSpan::current_unit());
      if (t.stage == "encode") count_candidates(t.summary);
    };
    items->assign(batch.size(), BatchItemResult{});
    const pb::Clock::time_point t0 = pb::Clock::now();
    {
      pb::ScopedSpan pass_span(&tracer, "run_batch", pass);
      const int parent = pass_span.id();
      const long long base = pass * static_cast<long long>(batch.size());
      rtcad::WorkPool pool(static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(pb::nproc()), batch.size())));
      pool.for_each_index(batch.size(), [&](std::size_t i) {
        pb::ScopedSpan span(&tracer, "run_batch_item",
                            base + static_cast<long long>(i), parent);
        (*items)[i] = rtcad::run_batch_item(batch[i], ctx);
      });
    }
    ++traced_passes_;
    return pb::ms_since(t0);
  }

  /// The encode stage summary ends "candidates evaluated/feasible per
  /// round: E/F, E/F, ..." when the CSC search ran.
  void count_candidates(const std::string& summary) {
    static const std::string kKey = "per round: ";
    const std::size_t at = summary.find(kKey);
    if (at == std::string::npos) return;
    long long evaluated = 0, feasible = 0;
    const char* p = summary.c_str() + at + kKey.size();
    int e = 0, f = 0, used = 0;
    while (std::sscanf(p, "%d/%d%n", &e, &f, &used) == 2) {
      evaluated += e;
      feasible += f;
      p += used;
      while (*p == ',' || *p == ' ') ++p;
    }
    csc_evaluated_ += evaluated;
    csc_feasible_ += feasible;
  }

  void check(const BatchItemResult& item, pb::Gate& gate) {
    const std::string record = rtcad::item_record_json(item);
    const auto golden = golden_.find(item.name);
    if (golden != golden_.end()) {
      gate.expect_bytes(record, golden->second, "corpus " + item.name);
      return;
    }
    // Built-ins have no checked-in golden: ok, and byte-identical to
    // their first pass.
    auto [ref, first] = builtin_ref_.emplace(item.name, record);
    gate.check(item.ok && (first || ref->second == record),
               "corpus built-in " + item.name);
  }

  std::uint64_t seed_;
  std::vector<std::string> files_;
  std::map<std::string, std::string> golden_;
  std::map<std::string, std::string> builtin_ref_;
  FlowContext ctx_;
  std::vector<BatchSpec> items_;
  long long passes_ = 0;
  long long traced_passes_ = 0;
  std::atomic<long long> csc_evaluated_{0};
  std::atomic<long long> csc_feasible_{0};
};

// --- bigraph ---------------------------------------------------------------
//
// Unit: one reachability of the generated pipeline19 — StateGraph::build at
// sg.threads = nproc, then analyze(). rate_per_s counts states.

constexpr int kPipelineStages = 19;
constexpr int kExpectStates = 1 << 20;
constexpr int kExpectEdges = 5767168;
constexpr int kExpectLevels = 211;

class Bigraph final : public Workload {
 public:
  const char* rate_counts() const override { return "states"; }

  void setup(pb::Gate&) override {
    stg_ = rtcad::pipeline_stg(kPipelineStages);
  }

  Samples measure(pb::Clock::time_point deadline, pb::Tracer* tracer,
                  pb::Gate& gate) override {
    Samples s;
    do {
      // Hand the previous unit's freed heap back to the kernel, so every
      // unit builds into fresh pages as a one-shot CLI run does, and peak
      // RSS measures one graph rather than allocator retention.
      malloc_trim(0);
      const long long unit = units_++;
      std::optional<StateGraph> g;
      rtcad::SgAnalysis a;
      const double ms = timed(tracer, "reachability", unit, [&] {
        g.emplace(timed_build(tracer, unit, pb::nproc()));
        pb::ScopedSpan span(tracer, "analyze", unit);
        a = rtcad::analyze(*g);
      });
      check_counts(*g, gate, "bigraph unit");
      gate.check(a.persistency.empty() && a.csc_conflicts.empty(),
                 "bigraph analysis: pipeline19 is persistent and has CSC");
      s.unit_ms.push_back(ms);
      s.work += g->num_states();
      s.busy_s += ms / 1000.0;
    } while (pb::Clock::now() < deadline);
    return s;
  }

  void check_once(pb::Gate& gate) override {
    const StateGraph one = build(1);
    const StateGraph many = build(pb::nproc());
    check_counts(one, gate, "bigraph 1-thread build");
    gate.check(rtcad::identical_graphs(one, many),
               "bigraph: 1-thread and nproc builds are identical");
  }

  Metrics layers(pb::Tracer& tracer, pb::Gate& gate) override {
    const long long unit = units_++;
    double transpose = 0, transpose_t1 = 0, excite = 0, excite_t1 = 0;
    double arena_mb = 0, csr_mb = 0, states = 0, edges = 0;
    {
      StateGraph g = timed_build(&tracer, unit, pb::nproc());
      check_counts(g, gate, "bigraph probe");
      arena_mb = static_cast<double>(g.arena_bytes()) / (1 << 20);
      csr_mb = static_cast<double>(g.csr_bytes()) / (1 << 20);
      states = g.num_states();
      edges = g.num_edges();
      const auto probe = [&](const char* name, auto&& fn) {
        return pb::median_of_repeats(
                   [&] {
                     pb::ScopedSpan span(&tracer, name, unit);
                     fn();
                   },
                   [] {}, 3, 3) *
               1000.0;
      };
      const int t = pb::nproc();
      transpose = probe("rebuild_reverse_csr(nproc)",
                        [&] { g.rebuild_reverse_csr(t); });
      transpose_t1 = probe("rebuild_reverse_csr(1)",
                           [&] { g.rebuild_reverse_csr(1); });
      excite = probe("recompute_excitation(nproc)",
                     [&] { g.recompute_excitation(t); });
      excite_t1 = probe("recompute_excitation(1)",
                        [&] { g.recompute_excitation(1); });
    }
    double build_t1 = 0;
    {
      const pb::Clock::time_point t0 = pb::Clock::now();
      pb::ScopedSpan span(&tracer, "StateGraph::build(1)", unit);
      const StateGraph g = build(1);
      build_t1 = pb::ms_since(t0);
      check_counts(g, gate, "bigraph 1-thread probe");
    }
    const std::vector<pb::Span> spans = tracer.spans();
    const double build_ms = median_span(spans, "StateGraph::build");
    return {
        {"sg.build_ms", build_ms, "ms"},
        {"sg.build_t1_ms", build_t1, "ms"},
        {"sg.speedup", build_t1 / build_ms, "x"},
        {"sg.explore_ms", build_ms - transpose - excite, "ms"},
        {"sg.transpose_ms", transpose, "ms"},
        {"sg.transpose_t1_ms", transpose_t1, "ms"},
        {"sg.excite_ms", excite, "ms"},
        {"sg.excite_t1_ms", excite_t1, "ms"},
        {"sg.analyze_ms", median_span(spans, "analyze"), "ms"},
        {"sg.arena_mb", arena_mb, "MB"},
        {"sg.csr_mb", csr_mb, "MB"},
        {"sg.states", states, "count"},
        {"sg.edges", edges, "count"},
    };
  }

 private:
  StateGraph build(int threads) const {
    rtcad::SgOptions opts;
    opts.threads = threads;
    return StateGraph::build(stg_, opts);
  }

  StateGraph timed_build(pb::Tracer* tracer, long long unit, int threads) {
    pb::ScopedSpan span(tracer, "StateGraph::build", unit);
    return build(threads);
  }

  static void check_counts(const StateGraph& g, pb::Gate& gate,
                           const std::string& what) {
    gate.check(g.num_states() == kExpectStates &&
                   g.num_edges() == kExpectEdges &&
                   g.num_levels() == kExpectLevels,
               what + ": exact state, edge and level counts (got " +
                   std::to_string(g.num_states()) + "/" +
                   std::to_string(g.num_edges()) + "/" +
                   std::to_string(g.num_levels()) + ")");
  }

  rtcad::Stg stg_;
  long long units_ = 0;
};

// --- serve -----------------------------------------------------------------
//
// Unit: one serve_submit round trip to an in-process FlowService on a Unix
// socket, closed loop, nproc/2 clients against nproc/2 flow slots. The
// seeded plan sends about 1 request in 20 with a fresh max-states (a
// store miss: flow run + store); the rest hit the warmed store.

class Serve final : public Workload {
 public:
  Serve(std::uint64_t seed, std::string work_dir)
      : seed_(seed),
        work_dir_(std::move(work_dir)),
        files_(spec_files()),
        golden_(pb::golden_records(pb::read_file("specs/golden.json"))),
        half_(std::max(1, pb::nproc() / 2)) {
    for (const std::string& f : files_) texts_.push_back(pb::read_file(f));
  }
  ~Serve() override { teardown(); }

  const char* rate_counts() const override { return "requests"; }

  void setup(pb::Gate& gate) override {
    dir_ = work_dir_ + "/serve-" + std::to_string(getpid()) + "-" +
           std::to_string(instances_++);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    rtcad::ServeOptions so;
    so.socket_path = dir_ + "/s.sock";
    so.cache_dir = dir_ + "/store";
    so.budget.corpus = half_;
    so.budget.graph = 1;
    so.budget.candidate = 1;
    service_ = std::make_unique<rtcad::FlowService>(so);
    service_->start();
    endpoint_ = rtcad::Endpoint::unix_path(so.socket_path);
    keys_.assign(files_.size(), std::string());
    for (std::size_t i = 0; i < files_.size(); ++i) {
      const rtcad::SubmitResult r =
          rtcad::serve_submit(endpoint_, request(static_cast<int>(i), 0));
      gate.check(r.protocol_ok && r.cache_status == "miss" &&
                     r.record_json == golden_.at(files_[i]),
                 "serve warming submit of " + files_[i]);
      keys_[i] = r.key;
    }
  }

  void teardown() override {
    if (!service_) return;
    service_->stop();
    service_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Samples measure(pb::Clock::time_point deadline, pb::Tracer* tracer,
                  pb::Gate& gate) override {
    struct Client {
      std::vector<double> ms;
      long long hits = 0, planned_hits = 0;
    };
    std::vector<Client> clients(static_cast<std::size_t>(half_));
    const pb::Clock::time_point start = pb::Clock::now();
    const auto loop = [&](Client& c) {
      do {
        const std::uint64_t i = next_request_++;
        const pb::PlannedRequest p = pb::plan_request(
            seed_, i, static_cast<int>(files_.size()));
        const rtcad::SubmitRequest req =
            request(p.spec, p.miss ? pb::miss_max_states(i) : 0);
        rtcad::SubmitResult r;
        c.ms.push_back(timed(tracer, p.miss ? "serve_submit(miss)"
                                            : "serve_submit(hit)",
                             static_cast<long long>(i),
                             [&] { r = rtcad::serve_submit(endpoint_, req); }));
        const std::string& name = files_[static_cast<std::size_t>(p.spec)];
        gate.check(r.protocol_ok && r.record_json == golden_.at(name) &&
                       r.cache_status == (p.miss ? "miss" : "hit"),
                   "serve request " + std::to_string(i) + " (" + name +
                       ", planned " + (p.miss ? "miss" : "hit") +
                       ", got " + r.cache_status + ")");
        c.hits += r.cache_status == "hit";
        c.planned_hits += !p.miss;
      } while (std::chrono::steady_clock::now() < deadline);
    };
    {
      std::vector<std::thread> threads;
      for (Client& c : clients) threads.emplace_back(loop, std::ref(c));
      for (std::thread& t : threads) t.join();
    }
    Samples s;
    s.busy_s = pb::ms_since(start) / 1000.0;
    long long hits = 0, planned_hits = 0;
    for (Client& c : clients) {
      s.unit_ms.insert(s.unit_ms.end(), c.ms.begin(), c.ms.end());
      hits += c.hits;
      planned_hits += c.planned_hits;
    }
    s.work = static_cast<double>(s.unit_ms.size());
    gate.check(hits == planned_hits,
               "serve: observed hits equal the plan's hits");
    requests_ += static_cast<long long>(s.unit_ms.size());
    hits_ += hits;
    return s;
  }

  void check_once(pb::Gate& gate) override {
    gate.check(rtcad::serve_control(endpoint_, "ping") == "pong",
               "serve: ping answers pong");
  }

  Metrics layers(pb::Tracer& tracer, pb::Gate& gate) override {
    const std::vector<pb::Span> spans = tracer.spans();
    // Standalone item time of each spec: the same flow a miss runs, on
    // one thread, outside the daemon.
    std::vector<double> standalone(files_.size());
    for (std::size_t i = 0; i < files_.size(); ++i) {
      const BatchSpec item{files_[i],
                           rtcad::parse_stg_string(texts_[i], files_[i]),
                           FlowOptions{}, std::nullopt};
      const FlowContext ctx = context(1, 1, 1);
      standalone[i] = pb::median_of_repeats(
                          [&] {
                            pb::ScopedSpan span(&tracer, "run_batch_item", -1);
                            gate.check(rtcad::run_batch_item(item, ctx).ok,
                                       "serve standalone " + files_[i]);
                          },
                          [] {}, 3, 3) *
                      1000.0;
    }
    std::vector<double> wait;
    for (const pb::Span& s : spans)
      if (s.name == "serve_submit(miss)") {
        const pb::PlannedRequest p = pb::plan_request(
            seed_, static_cast<std::uint64_t>(s.unit),
            static_cast<int>(files_.size()));
        wait.push_back(s.duration() -
                       standalone[static_cast<std::size_t>(p.spec)]);
      }

    const double ping = pb::median_of_repeats(
        [&] {
          pb::ScopedSpan span(&tracer, "serve_control(ping)");
          gate.check(rtcad::serve_control(endpoint_, "ping") == "pong",
                     "serve ping");
        },
        [] {}, 50, 50);

    // Direct calls on the warm store the daemon is serving from.
    const rtcad::ResultCache store(dir_ + "/store");
    std::vector<BatchItemResult> stored(files_.size());
    const auto per_spec = [&](const char* name, auto&& fn) {
      return pb::median_of_repeats(
          [&] {
            for (std::size_t i = 0; i < files_.size(); ++i) {
              pb::ScopedSpan span(&tracer, name);
              fn(i);
            }
          },
          [] {}, 5, 5) * 1000.0 / static_cast<double>(files_.size());
    };
    const double lookup = per_spec("ResultCache::lookup", [&](std::size_t i) {
      std::optional<BatchItemResult> hit = store.lookup(keys_[i]);
      if (gate.check(hit && rtcad::item_record_json(*hit) ==
                                golden_.at(files_[i]),
                     "cache lookup of " + files_[i]))
        stored[i] = std::move(*hit);
    });
    const double store_ms = per_spec("ResultCache::store", [&](std::size_t i) {
      store.store(keys_[i], stored[i]);
    });

    return {
        {"transport.ping_ms", ping * 1000.0, "ms"},
        {"serve.hit_ms", median_span(spans, "serve_submit(hit)"), "ms"},
        {"serve.miss_ms", median_span(spans, "serve_submit(miss)"), "ms"},
        {"serve.wait_ms", pb::median(wait), "ms"},
        {"cache.lookup_ms", lookup, "ms"},
        {"cache.store_ms", store_ms, "ms"},
        {"cache.hit_ratio",
         requests_ ? static_cast<double>(hits_) / static_cast<double>(requests_)
                   : 0.0,
         "ratio"},
    };
  }

 private:
  rtcad::SubmitRequest request(int spec, std::size_t max_states) const {
    rtcad::SubmitRequest req;
    req.name = files_[static_cast<std::size_t>(spec)];
    req.spec_text = texts_[static_cast<std::size_t>(spec)];
    req.mode = FlowMode::kRelativeTiming;
    req.max_states = max_states;
    return req;
  }

  std::uint64_t seed_;
  std::string work_dir_;
  std::vector<std::string> files_;
  std::vector<std::string> texts_;
  std::map<std::string, std::string> golden_;
  int half_;
  std::string dir_;
  int instances_ = 0;
  std::unique_ptr<rtcad::FlowService> service_;
  rtcad::Endpoint endpoint_;
  std::vector<std::string> keys_;
  std::atomic<std::uint64_t> next_request_{0};
  long long requests_ = 0;
  long long hits_ = 0;
};

// --- sweep -----------------------------------------------------------------
//
// Unit: one run_sweep of specs/mmu.g at threads = nproc with faults on and
// seeded delay and environment grids of kSweepDelays / kSweepEnvs
// variants. rate_per_s counts variants.

constexpr int kSweepDelays = 2000;
constexpr int kSweepEnvs = 2000;
/// Paired runs behind each sweep layer probe.
constexpr int kProbePairs = 9;

class Sweep final : public Workload {
 public:
  explicit Sweep(std::uint64_t seed)
      : seed_(seed), golden_(pb::read_file("specs/golden_sweep.json")) {}

  const char* rate_counts() const override { return "variants"; }

  void setup(pb::Gate&) override {
    spec_ = rtcad::parse_stg_file("specs/mmu.g");
  }

  Samples measure(pb::Clock::time_point deadline, pb::Tracer* tracer,
                  pb::Gate& gate) override {
    Samples s;
    const rtcad::SweepOptions opts = grid(true, kSweepDelays, kSweepEnvs);
    const FlowContext ctx = context(pb::nproc(), -1, -1);
    do {
      rtcad::SweepReport report;
      const double ms = timed(tracer, "run_sweep", units_++, [&] {
        report = rtcad::run_sweep("mmu", spec_, opts, ctx);
      });
      check_report(report, gate);
      s.unit_ms.push_back(ms);
      s.work += static_cast<double>(report.outcomes.size());
      s.busy_s += ms / 1000.0;
    } while (pb::Clock::now() < deadline);
    return s;
  }

  void check_once(pb::Gate& gate) override {
    rtcad::SweepOptions defaults;
    defaults.flow.mode = FlowMode::kRelativeTiming;
    gate.expect_bytes(
        rtcad::to_sweep_json(rtcad::run_sweep(
            "mmu", spec_, defaults, context(pb::nproc(), -1, -1))),
        golden_, "sweep: default mmu grid vs specs/golden_sweep.json");
  }

  Metrics layers(pb::Tracer& tracer, pb::Gate& gate) override {
    // Each variant kind runs alone, right after a sweep with no variants;
    // its cost is the median of the paired differences, so drift over the
    // probe cancels. The pool speedup pairs 1-thread and nproc runs alike.
    const int t = pb::nproc();
    rtcad::SweepReport report;
    const auto run = [&](const char* name, const rtcad::SweepOptions& o,
                         int threads) {
      return timed(&tracer, name, -1, [&] {
        report = rtcad::run_sweep("mmu", spec_, o, context(threads, -1, -1));
      });
    };
    const rtcad::SweepOptions none = grid(false, 0, 0);
    const auto cost = [&](const char* name, const rtcad::SweepOptions& o) {
      std::vector<double> diffs;
      for (int r = 0; r < kProbePairs; ++r) {
        const double base = run("run_sweep(base)", none, t);
        diffs.push_back(run(name, o, t) - base);
      }
      return pb::median(std::move(diffs));
    };
    const double faults = cost("run_sweep(faults)", grid(true, 0, 0));
    const double delays =
        cost("run_sweep(delays)", grid(false, kSweepDelays, 0));
    const double envs = cost("run_sweep(envs)", grid(false, 0, kSweepEnvs));
    const rtcad::SweepOptions full = grid(true, kSweepDelays, kSweepEnvs);
    std::vector<double> speedup;
    for (int r = 0; r < kProbePairs; ++r) {
      const double t1 = run("run_sweep(1 thread)", full, 1);
      check_report(report, gate);
      speedup.push_back(t1 / run("run_sweep(nproc)", full, t));
      check_report(report, gate);
    }
    return {
        {"sweep.base_ms", median_span(tracer.spans(), "run_sweep(base)"),
         "ms"},
        {"dft.fault_ms", faults, "ms"},
        {"timed.delay_ms", delays, "ms"},
        {"sim.env_ms", envs, "ms"},
        {"util.sweep_speedup", pb::median(std::move(speedup)), "x"},
        {"sweep.variants", static_cast<double>(report.outcomes.size()),
         "count"},
        {"dft.detected", static_cast<double>(report.fault_detected), "count"},
        {"timed.breaking", static_cast<double>(report.delay_broken), "count"},
    };
  }

 private:
  rtcad::SweepOptions grid(bool faults, int delays, int envs) const {
    rtcad::SweepOptions o;
    o.flow.mode = FlowMode::kRelativeTiming;
    o.faults = faults;
    o.delay_variants = delays;
    o.env_variants = envs;
    o.seed = seed_;
    return o;
  }

  /// Every full-grid report of the run is byte-identical to the first.
  void check_report(const rtcad::SweepReport& report, pb::Gate& gate) {
    const std::string text = rtcad::to_sweep_json(report);
    if (reference_.empty()) reference_ = text;
    gate.expect_bytes(text, reference_, "sweep: large-grid report");
  }

  std::uint64_t seed_;
  std::string golden_;
  rtcad::Stg spec_;
  std::string reference_;
  long long units_ = 0;
};

// --- driver ----------------------------------------------------------------

// The benchmark's workloads (BENCHMARK.json). `serve` runs only when
// named: the daemon keeps every finished connection thread joinable until
// stop(), so each connection pins an 8 MiB stack mapping and the process
// aborts once vm.max_map_count (65530) is reached, after about 32k
// requests — a few seconds of closed-loop load. README.md has the details.
const char* const kWorkloads[] = {"corpus", "bigraph", "sweep"};
const char* const kAllWorkloads[] = {"corpus", "bigraph", "serve", "sweep"};

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed,
                               const std::string& work_dir) {
  if (name == "corpus") return std::make_unique<Corpus>(seed);
  if (name == "bigraph") return std::make_unique<Bigraph>();
  if (name == "serve") return std::make_unique<Serve>(seed, work_dir);
  if (name == "sweep") return std::make_unique<Sweep>(seed);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = val;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end) return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = val;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

struct EndToEnd {
  double rate = 0;
  double p50 = 0;
  pb::Tail tail;
};

EndToEnd summarize(const Samples& s) {
  return EndToEnd{s.work / s.busy_s, pb::median(s.unit_ms),
                  pb::tail_of(s.unit_ms)};
}

std::string tail_text(const pb::Tail& t) {
  if (!t.present)
    return "tail=omitted(" + std::to_string(t.samples) + " units)";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tail_ms=%.4f at p%g (%zu of %zu units beyond)", t.value,
                t.percentile, t.beyond, t.samples);
  return buf;
}

/// The measured phase is cut into up to this many segments, each preceded
/// by a round of timed set-up repeats that lasts 1/20 of the segment
/// before it. Sub-millisecond set-ups flip between speed modes up to 1.6x
/// apart, each lasting 20-400 ms, so many rounds spread over the whole run
/// give a steadier median than repeats bunched at its start. A segment
/// holds at least one unit, so a workload with long units (bigraph) gets
/// one longer round per unit instead.
constexpr int kSegments = 30;
constexpr double kSetupShare = 0.05;

/// Slices of a traced run, alternately untraced and traced.
constexpr int kTraceSlices = 12;

void append(Samples* all, const Samples& part) {
  all->unit_ms.insert(all->unit_ms.end(), part.unit_ms.begin(),
                      part.unit_ms.end());
  all->work += part.work;
  all->busy_s += part.busy_s;
}

/// One round of set-up repeats (teardown untimed in between) lasting at
/// least `round_s`, appended to `secs`. The workload is left set up.
void time_setup(Workload& w, pb::Gate& gate, double round_s,
                std::vector<double>* secs) {
  const std::vector<double> round = pb::repeat_timings(
      [&] { w.setup(gate); }, [&] { w.teardown(); }, 1, 100000, round_s);
  secs->insert(secs->end(), round.begin(), round.end());
}

pb::Clock::time_point after(pb::Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<pb::Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

int run(const Args& a) {
  pb::Gate gate;
  std::unique_ptr<Workload> w = make(a.workload, a.seed, a.work_dir);
  std::vector<double> setup_secs;
  Metrics metrics;
  std::string summary;
  if (!a.trace) {
    Samples s;
    const pb::CpuTicks ticks0 = pb::cpu_ticks();
    const pb::Clock::time_point start = pb::Clock::now();
    const pb::Clock::time_point end = after(start, a.seconds);
    double segment_s = a.seconds / kSegments;
    for (int k = 1; k <= kSegments && pb::Clock::now() < end; ++k) {
      time_setup(*w, gate, kSetupShare * segment_s, &setup_secs);
      const Samples part = w->measure(
          after(start, a.seconds * k / kSegments), nullptr, gate);
      segment_s = part.busy_s;
      append(&s, part);
    }
    const double rss = pb::peak_rss_mb();
    const pb::CpuTicks ticks1 = pb::cpu_ticks();
    w->check_once(gate);
    const EndToEnd e = summarize(s);
    metrics = {{"setup_s", pb::median(setup_secs), "s"},
               {"rate_per_s", e.rate, "1/s"},
               {"p50_ms", e.p50, "ms"},
               {"peak_rss_mb", rss, "MB"}};
    // Host steal: the share of the VM's CPU time the hypervisor gave to
    // other guests while units ran. It slows the nproc-thread units
    // directly, so a run with high steal explains an outlying rate.
    const double all = static_cast<double>(ticks1.total - ticks0.total);
    const double steal = static_cast<double>(ticks1.steal - ticks0.steal);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  " units=%zu rate counts %s; host steal %.1f%%;",
                  s.unit_ms.size(), w->rate_counts(),
                  all > 0 ? 100.0 * steal / all : 0.0);
    summary = buf + std::string(" ") + tail_text(e.tail);
  } else {
    // Tracing overhead: the same units untraced and traced, in one
    // process, in slices ordered plain-traced-traced-plain so warm-up and
    // host drift fall on both sides alike.
    time_setup(*w, gate, kSetupShare * a.seconds / kSegments, &setup_secs);
    pb::Tracer own;
    Samples plain, traced;
    for (int k = 0; k < kTraceSlices; ++k) {
      const bool on = k % 4 == 1 || k % 4 == 2;
      append(on ? &traced : &plain,
             w->measure(after(pb::Clock::now(), a.seconds / kTraceSlices),
                        on ? &own : nullptr, gate));
    }
    w->check_once(gate);
    const EndToEnd u = summarize(plain);
    const EndToEnd t = summarize(traced);
    // Every per-layer metric: the run's own workload from its traced
    // slices, each other benchmark workload from a short traced run.
    const std::string trace_dir = a.work_dir + "/traces";
    fs::create_directories(trace_dir);
    std::vector<std::string> survey(std::begin(kWorkloads),
                                    std::end(kWorkloads));
    if (std::find(survey.begin(), survey.end(), a.workload) == survey.end())
      survey.push_back(a.workload);
    for (const std::string& name : survey) {
      std::unique_ptr<Workload> owned;
      Workload* x = w.get();
      pb::Tracer other;
      pb::Tracer* tracer = &own;
      if (name != a.workload) {
        owned = make(name, a.seed, a.work_dir);
        x = owned.get();
        tracer = &other;
        x->setup(gate);
        x->measure(after(pb::Clock::now(), 1.0), tracer, gate);
      }
      for (pb::Metric& m : x->layers(*tracer, gate))
        metrics.push_back(std::move(m));
      x->teardown();
      tracer->write_chrome_trace(trace_dir + "/" + a.workload + "-seed" +
                                 std::to_string(a.seed) + "-" + name +
                                 ".json");
    }
    metrics.push_back({"trace.p50_overhead_frac", t.p50 / u.p50 - 1, "ratio"});
    metrics.push_back(
        {"trace.rate_overhead_frac", 1 - t.rate / u.rate, "ratio"});
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  " traced: p50_ms %.4f vs %.4f untraced, rate_per_s %.4f vs "
                  "%.4f untraced; traces in %s",
                  t.p50, u.p50, t.rate, u.rate, trace_dir.c_str());
    summary = buf;
  }
  w->teardown();
  const bool correct = gate.failed() == 0 && gate.attempted() > 0;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d;%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, summary.c_str());
  std::printf("%s\n", pb::result_json(correct, gate.attempted(), gate.failed(),
                                      metrics)
                          .c_str());
  std::fflush(stdout);
  if (!correct)
    std::fprintf(stderr, "perfbench: %lld of %lld operations FAILED\n",
                 gate.failed(), gate.attempted());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a) ||
      std::find(std::begin(kAllWorkloads), std::end(kAllWorkloads),
                a.workload) == std::end(kAllWorkloads)) {
    std::fprintf(stderr,
                 "usage: %s --workload corpus|bigraph|serve|sweep --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
