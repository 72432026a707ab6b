// The indexed-work engine (flow/indexed.*): the runner, the field
// fingerprint, and the one shard-set validator both shard kinds — batch
// shards over a corpus and sweep shards over a variant list — merge
// through. The rejection table runs over both kinds, so a violation the
// validator catches for one kind it catches for the other.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

TEST(Indexed, RunnerVisitsEveryIndexOnceAtAnyWidth) {
  for (const int threads : {1, 3, 8}) {
    FlowContext ctx;
    ctx.budget.corpus = threads;
    std::vector<std::atomic<int>> hits(37);
    run_indexed(hits.size(), ctx, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    run_indexed(0, ctx, [](std::size_t) { FAIL() << "no items, no calls"; });
  }
}

TEST(Indexed, FingerprintSeparatesFieldBoundaries) {
  FieldFingerprint ab_c, a_bc, abc;
  ab_c.mix("ab");
  ab_c.mix("c");
  a_bc.mix("a");
  a_bc.mix("bc");
  abc.mix("abc");
  EXPECT_NE(ab_c.hex(), a_bc.hex());
  EXPECT_NE(ab_c.hex(), abc.hex());
  EXPECT_EQ(ab_c.hex().size(), 16u);
  // FNV-1a 64 offset basis: the fingerprint of no fields at all.
  EXPECT_EQ(FieldFingerprint().hex(), "cbf29ce484222325");
}

// --- the shard-set rejection table, over both kinds -------------------------

enum class Breakage {
  kEmpty,
  kIncomplete,
  kDuplicateId,
  kOfMismatch,
  kTotalMismatch,
  kForeignFingerprint,
  kNonOwnedIndex,
  kShortShard,
  kReordered,
};

struct Case {
  const char* name;
  Breakage breakage;
  const char* expect;  ///< error substring; nullptr: the set is accepted
};

const Case kCases[] = {
    {"empty set", Breakage::kEmpty, "no shard files"},
    {"incomplete set", Breakage::kIncomplete, "got 2 shard files"},
    {"duplicate id", Breakage::kDuplicateId, "duplicate shard id"},
    {"of mismatch", Breakage::kOfMismatch, "declares \"of\": 4"},
    {"total mismatch", Breakage::kTotalMismatch, "size"},
    {"foreign fingerprint", Breakage::kForeignFingerprint, "fingerprint"},
    {"non-owned index", Breakage::kNonOwnedIndex, "expected"},
    {"short shard", Breakage::kShortShard, "holds"},
    {"any file order", Breakage::kReordered, nullptr},
};

/// Run every case against a complete, valid 3-shard set of one kind.
/// `total_key`/`source` are the kind's words, which the total and
/// fingerprint messages name.
template <class Shard, class Merge, class Render>
void check_rejection_table(const std::vector<Shard>& good, Merge merge,
                           Render render, const std::string& total_key,
                           const std::string& source) {
  ASSERT_EQ(good.size(), 3u);
  for (const Shard& s : good) ASSERT_FALSE(s.items.empty());
  const std::string reference = render(merge(good));

  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    std::vector<Shard> set = good;
    switch (c.breakage) {
      case Breakage::kEmpty: set.clear(); break;
      case Breakage::kIncomplete: set.pop_back(); break;
      case Breakage::kDuplicateId: set[2] = set[1]; break;
      case Breakage::kOfMismatch: set[1].of = 4; break;
      case Breakage::kTotalMismatch: set[2].total += 1; break;
      case Breakage::kForeignFingerprint:
        set[1].fingerprint = "0000000000000000";
        break;
      case Breakage::kNonOwnedIndex: set[1].items[0].index += 1; break;
      case Breakage::kShortShard: set[0].items.pop_back(); break;
      case Breakage::kReordered: set = {good[2], good[0], good[1]}; break;
    }
    if (!c.expect) {
      EXPECT_EQ(render(merge(set)), reference);
      continue;
    }
    std::string err;
    try {
      merge(set);
    } catch (const Error& e) {
      err = e.what();
    }
    EXPECT_NE(err.find(c.expect), std::string::npos) << err;
    if (c.breakage == Breakage::kTotalMismatch) {
      EXPECT_NE(err.find(total_key + " size"), std::string::npos) << err;
    }
    if (c.breakage == Breakage::kForeignFingerprint) {
      EXPECT_NE(err.find("different " + source + " or flags"),
                std::string::npos)
          << err;
    }
  }
}

TEST(ShardSet, RejectionTableCoversBothKinds) {
  {
    SCOPED_TRACE("batch shards");
    const std::vector<BatchSpec> corpus = builtin_corpus();
    std::vector<ShardRun> shards;
    for (std::size_t i = 0; i < 3; ++i)
      shards.push_back(run_shard(corpus, i, 3));
    check_rejection_table(
        shards, [](const std::vector<ShardRun>& s) { return merge_shards(s); },
        [](const BatchResult& r) { return to_json(r); }, "corpus", "corpus");
  }
  {
    SCOPED_TRACE("sweep shards");
    const Stg spec =
        parse_stg_file(std::string(RTCAD_SPECS_DIR) + "/mmu.g");
    SweepOptions opts;
    opts.flow.mode = FlowMode::kRelativeTiming;
    opts.fault.sim_time_ps = 20000.0;
    opts.faults = false;  // keep the fixtures fast
    opts.delay_variants = 6;
    opts.env_variants = 3;
    std::vector<SweepShard> shards;
    for (std::size_t i = 0; i < 3; ++i)
      shards.push_back(run_sweep_shard("mmu", spec, i, 3, opts, {}));
    check_rejection_table(
        shards,
        [](const std::vector<SweepShard>& s) { return merge_sweep_shards(s); },
        [](const SweepReport& r) { return to_sweep_json(r); }, "variants",
        "spec");
  }
}

/// The envelope reader rejects the other kind's file by its "kind" word,
/// which is what lets `merge` dispatch on the first file and name a
/// mixed set's odd file.
TEST(ShardSet, EachKindRejectsTheOthersEnvelope) {
  const std::vector<BatchSpec> corpus = builtin_corpus(2);
  const std::string batch_text = to_shard_json(run_shard(corpus, 0, 1));
  try {
    parse_sweep_shard_json(batch_text);
    FAIL() << "batch shard parsed as a sweep shard";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("\"kind\" must be \"sweep-shard\""),
              std::string::npos)
        << e.what();
  }
  SweepShard sweep;
  sweep.extras.spec = "x";
  sweep.extras.mode = "rt";
  const std::string sweep_text = to_sweep_shard_json(sweep);
  EXPECT_EQ(to_sweep_shard_json(parse_sweep_shard_json(sweep_text)),
            sweep_text);
  try {
    parse_shard_json(sweep_text);
    FAIL() << "sweep shard parsed as a batch shard";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("\"kind\" must be \"shard\""),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rtcad
