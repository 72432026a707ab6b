// Back-end determinism differential: the full Figure 2 flow — through
// map, size and verify-netlist — must produce byte-identical netlist
// dumps and stage lines whether the thread budget runs everything on one
// worker or spreads graph- and candidate-level work over eight. Run on
// the two largest checked-in specs (mmu, ram_read_sbuf), the ones with
// the largest state graphs and a real CSC search.
//
// The `_parallel` suffix routes this suite to the ctest "parallel" label,
// so the ASan/TSan CI jobs cover the back end under both sanitizers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

FlowOptions backend_opts() {
  FlowOptions o;
  o.mode = FlowMode::kRelativeTiming;
  o.stop_after = "verify-netlist";
  return o;
}

std::string render_stages(const FlowResult& r) {
  std::string out;
  for (const FlowStage& s : r.stages) out += s.name + ": " + s.detail + "\n";
  return out;
}

/// Run `spec` through the full pipeline under a (graph, candidate)
/// thread budget and return the canonical observables: the final netlist
/// bytes and the legacy stage lines.
std::pair<std::string, std::string> run_full(const Stg& spec, int graph,
                                             int candidate) {
  FlowContext ctx;
  ctx.budget.graph = graph;
  ctx.budget.candidate = candidate;
  const PipelineResult r =
      FlowPipeline::standard(FlowMode::kRelativeTiming)
          .run(spec, backend_opts(), ctx);
  EXPECT_TRUE(r.ok()) << (r.error ? r.error->message : "");
  if (!r.ok()) return {};
  EXPECT_TRUE(r.flow.mapped.has_value());
  return {r.flow.final_netlist().to_text(), render_stages(r.flow)};
}

class BackendDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendDifferential, NetlistBytesAreThreadIndependent) {
  const Stg spec =
      parse_stg_file(std::string(RTCAD_SPECS_DIR) + "/" + GetParam());
  const auto t1 = run_full(spec, 1, 1);
  const auto t8 = run_full(spec, 8, 8);
  ASSERT_FALSE(t1.first.empty());
  EXPECT_EQ(t8.first, t1.first);    // netlist dump bytes
  EXPECT_EQ(t8.second, t1.second);  // legacy stage lines
  // Mixed budgets sit on the same bytes: the levels are independent.
  const auto mixed = run_full(spec, 8, 1);
  EXPECT_EQ(mixed.first, t1.first);
  EXPECT_EQ(mixed.second, t1.second);
}

INSTANTIATE_TEST_SUITE_P(LargestCorpusSpecs, BackendDifferential,
                         ::testing::Values("mmu.g", "ram_read_sbuf.g"),
                         [](const auto& info) {
                           std::string name = info.param;
                           return name.substr(0, name.size() - 2);
                         });

}  // namespace
}  // namespace rtcad
