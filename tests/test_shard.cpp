// The shard/merge subsystem: round-robin index ownership, shard-file
// round-tripping through the strict JSON reader, and the core contract —
// merging N shard files is byte-identical to one single-process batch.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "flow/flow.hpp"
#include "stg/builders.hpp"

namespace rtcad {
namespace {

TEST(Shard, IndicesAreRoundRobin) {
  EXPECT_EQ(shard_indices(7, 0, 3), (std::vector<std::size_t>{0, 3, 6}));
  EXPECT_EQ(shard_indices(7, 1, 3), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(shard_indices(7, 2, 3), (std::vector<std::size_t>{2, 5}));
  EXPECT_EQ(shard_indices(2, 1, 8), (std::vector<std::size_t>{1}));
  EXPECT_EQ(shard_indices(0, 0, 4), std::vector<std::size_t>{});
  EXPECT_EQ(shard_indices(5, 0, 1),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

/// The tentpole contract: shard -> serialize -> parse -> merge -> render
/// reproduces the single-process batch JSON byte for byte.
TEST(Shard, MergeOfShardsIsByteIdenticalToSingleProcessBatch) {
  const std::vector<BatchSpec> corpus = builtin_corpus();
  const std::string reference = to_json(run_batch(corpus));
  for (std::size_t of : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    std::vector<ShardRun> shards;
    for (std::size_t i = 0; i < of; ++i)
      shards.push_back(
          parse_shard_json(to_shard_json(run_shard(corpus, i, of))));
    EXPECT_EQ(to_json(merge_shards(shards)), reference) << "of=" << of;
  }
}

TEST(Shard, MoreShardsThanItemsLeavesSomeEmpty) {
  std::vector<BatchSpec> corpus;
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  corpus.push_back(BatchSpec{"celement", celement_stg(), si, {}});
  corpus.push_back(BatchSpec{"toggle", toggle_stg(), si, {}});
  const std::string reference = to_json(run_batch(corpus));
  std::vector<ShardRun> shards;
  for (std::size_t i = 0; i < 4; ++i) {
    shards.push_back(run_shard(corpus, i, 4));
    if (i >= 2) {
      EXPECT_TRUE(shards.back().items.empty());
    }
  }
  EXPECT_EQ(to_json(merge_shards(shards)), reference);
}

TEST(Shard, EmptyCorpusRoundTrips) {
  const std::vector<BatchSpec> corpus;
  std::vector<ShardRun> shards;
  for (std::size_t i = 0; i < 2; ++i)
    shards.push_back(parse_shard_json(to_shard_json(run_shard(corpus, i, 2))));
  EXPECT_EQ(to_json(merge_shards(shards)), to_json(run_batch(corpus)));
}

/// Diagnostics (failed items) and hostile strings must survive the
/// serialize/parse round trip byte-exactly.
TEST(Shard, RecordsRoundTripEscapesAndDiagnostics) {
  ShardRun run;
  run.shard = 0;
  run.of = 1;
  run.total = 2;
  BatchItemResult ok_item;
  ok_item.name = "quote\"back\\slash\nnewline\ttab\rcr\x01ctl";
  ok_item.ok = true;
  ok_item.states = 7;
  ok_item.states_reduced = 5;
  ok_item.state_signals_added = 1;
  ok_item.literals = 4;
  ok_item.transistors = 12;
  ok_item.constraints = 3;
  ok_item.stages.push_back(FlowStage{"reachability", "7 states, \"quoted\""});
  BatchItemResult bad_item;
  bad_item.name = "failing";
  bad_item.ok = false;
  bad_item.diagnostic =
      BatchDiagnostic{"spec", "message with \\ and \"quotes\"\nand newline"};
  run.items.push_back(ShardItem{0, ok_item});
  run.items.push_back(ShardItem{1, bad_item});

  const std::string json = to_shard_json(run);
  const ShardRun back = parse_shard_json(json);
  ASSERT_EQ(back.items.size(), 2u);
  EXPECT_EQ(back.items[0].record.name, ok_item.name);
  EXPECT_EQ(back.items[0].record.stages[0].detail, "7 states, \"quoted\"");
  EXPECT_EQ(back.items[1].record.diagnostic.message,
            bad_item.diagnostic.message);
  // Byte-exactness, not just field equality: re-serialize and compare.
  EXPECT_EQ(to_shard_json(back), json);
}

std::string expect_merge_error(std::vector<ShardRun> shards) {
  try {
    merge_shards(shards);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Shard, MergeRejectsShardsFromDifferentCorporaOrFlags) {
  // Same corpus SIZE and index ownership, but one shard was produced
  // under different flags: only the fingerprint can catch it.
  const std::vector<BatchSpec> corpus = builtin_corpus();
  std::vector<BatchSpec> capped = corpus;
  for (auto& item : capped) item.opts.sg.max_states = 4096;
  ASSERT_NE(corpus_fingerprint(corpus), corpus_fingerprint(capped));

  std::vector<ShardRun> shards;
  shards.push_back(run_shard(corpus, 0, 2));
  shards.push_back(run_shard(capped, 1, 2));
  const std::string err = expect_merge_error(shards);
  EXPECT_NE(err.find("fingerprint"), std::string::npos);
  EXPECT_NE(err.find("different corpus or flags"), std::string::npos);
}

TEST(Shard, FingerprintCoversNamesOrderModeAndCap) {
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  std::vector<BatchSpec> base;
  base.push_back(BatchSpec{"a", celement_stg(), si, {}});
  base.push_back(BatchSpec{"b", toggle_stg(), si, {}});
  const std::string ref = corpus_fingerprint(base);

  std::vector<BatchSpec> renamed = base;
  renamed[0].name = "c";
  EXPECT_NE(corpus_fingerprint(renamed), ref);

  std::vector<BatchSpec> reordered = {base[1], base[0]};
  EXPECT_NE(corpus_fingerprint(reordered), ref);

  std::vector<BatchSpec> remoded = base;
  remoded[1].opts.mode = FlowMode::kRelativeTiming;
  EXPECT_NE(corpus_fingerprint(remoded), ref);

  std::vector<BatchSpec> recapped = base;
  recapped[0].opts.sg.max_states = 17;
  EXPECT_NE(corpus_fingerprint(recapped), ref);

  // Thread settings are excluded by design: results are identical across
  // them, so shards may run at different mixtures.
  std::vector<BatchSpec> rethreaded = base;
  rethreaded[0].opts.sg.threads = 8;
  EXPECT_EQ(corpus_fingerprint(rethreaded), ref);
}

TEST(Shard, ParserRejectsMalformedInput) {
  // Plain JSON breakage, each with a position-bearing Error.
  EXPECT_THROW(parse_shard_json(""), Error);
  EXPECT_THROW(parse_shard_json("{"), Error);
  EXPECT_THROW(parse_shard_json("{}{}"), Error);
  EXPECT_THROW(parse_shard_json("{\"schema\": }"), Error);
  EXPECT_THROW(parse_shard_json("{\"a\": \"\\q\"}"), Error);
  EXPECT_THROW(parse_shard_json("{\"a\": 1, \"a\": 2}"), Error);
  // Structurally valid JSON that is not a shard file.
  EXPECT_THROW(parse_shard_json("[]"), Error);
  EXPECT_THROW(parse_shard_json("{}"), Error);
  EXPECT_THROW(parse_shard_json(
                   "{\"schema\": 1, \"kind\": \"notashard\", \"shard\": 0, "
                   "\"of\": 1, \"corpus\": 0, \"items\": []}"),
               Error);
  EXPECT_THROW(parse_shard_json(
                   "{\"schema\": 1, \"kind\": \"shard\", \"shard\": 3, "
                   "\"of\": 2, \"corpus\": 0, \"items\": []}"),
               Error);
  EXPECT_THROW(parse_shard_json(
                   "{\"schema\": 1, \"kind\": \"shard\", \"shard\": 0, "
                   "\"of\": 1, \"corpus\": 0, \"items\": 7}"),
               Error);
}

TEST(Shard, ParserRejectsFutureSchemaVersions) {
  try {
    parse_shard_json(
        "{\"schema\": 2, \"kind\": \"shard\", \"shard\": 0, \"of\": 1, "
        "\"corpus\": 0, \"items\": []}");
    FAIL() << "schema 2 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported schema version 2"),
              std::string::npos);
  }
}

// --- crash-tolerant resume (run_shard_resume) -------------------------------

std::vector<BatchSpec> small_corpus() {
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  std::vector<BatchSpec> corpus;
  corpus.push_back(BatchSpec{"celement", celement_stg(), si, {}});
  corpus.push_back(BatchSpec{"toggle", toggle_stg(), si, {}});
  corpus.push_back(BatchSpec{"fifo_si", fifo_si_stg(), si, {}});
  corpus.push_back(BatchSpec{"call", call_stg(), si, {}});
  return corpus;
}

TEST(ShardResume, FreshResumeEqualsRunShard) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun fresh = run_shard(corpus, 0, 2);
  std::size_t calls = 0;
  const ShardRun resumed = run_shard_resume(
      corpus, 0, 2, nullptr, {}, "", [&](std::size_t) { ++calls; });
  EXPECT_EQ(to_shard_json(resumed), to_shard_json(fresh));
  EXPECT_EQ(calls, fresh.items.size());
}

TEST(ShardResume, RecomputesOnlyTheMissingIndices) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun fresh = run_shard(corpus, 0, 1);
  ASSERT_EQ(fresh.items.size(), 4u);

  ShardRun partial = fresh;
  partial.items.erase(partial.items.begin() + 1);  // lose index 1
  partial.items.pop_back();                        // and index 3

  std::size_t computed = 0;
  const ShardRun resumed = run_shard_resume(
      corpus, 0, 1, &partial, {}, "",
      [&](std::size_t n) { computed = n; });
  EXPECT_EQ(computed, 2u) << "only the two dropped items are recomputed";
  // Byte-identical to a fresh run, however the work was split.
  EXPECT_EQ(to_shard_json(resumed), to_shard_json(fresh));
}

TEST(ShardResume, CancelledRecordsAreRecomputedNotReused) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun fresh = run_shard(corpus, 1, 2);
  ASSERT_FALSE(fresh.items.empty());

  ShardRun partial = fresh;
  partial.items[0].record.ok = false;
  partial.items[0].record.diagnostic =
      BatchDiagnostic{"cancelled", "cancelled during reachability"};

  std::size_t computed = 0;
  const ShardRun resumed = run_shard_resume(
      corpus, 1, 2, &partial, {}, "",
      [&](std::size_t n) { computed = n; });
  EXPECT_EQ(computed, 1u) << "the cancelled record is schedule noise";
  EXPECT_EQ(to_shard_json(resumed), to_shard_json(fresh));
}

std::string expect_resume_error(const std::vector<BatchSpec>& corpus,
                                std::size_t shard, std::size_t of,
                                const ShardRun& partial) {
  try {
    run_shard_resume(corpus, shard, of, &partial);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ShardResume, RejectsForeignPartials) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun good = run_shard(corpus, 0, 2);

  ShardRun wrong_shard = good;
  wrong_shard.shard = 1;
  EXPECT_NE(
      expect_resume_error(corpus, 0, 2, wrong_shard).find("expected"),
      std::string::npos);

  ShardRun wrong_of = good;
  wrong_of.of = 3;
  EXPECT_NE(expect_resume_error(corpus, 0, 2, wrong_of).find("expected"),
            std::string::npos);

  // Same shape, different flags: only the fingerprint can catch it.
  std::vector<BatchSpec> capped = corpus;
  for (auto& item : capped) item.opts.sg.max_states = 4096;
  EXPECT_NE(
      expect_resume_error(capped, 0, 2, good).find("fingerprint"),
      std::string::npos);

  ShardRun stolen = good;
  ASSERT_FALSE(stolen.items.empty());
  stolen.items[0].index += 1;  // index owned by shard 1
  EXPECT_NE(expect_resume_error(corpus, 0, 2, stolen).find("own"),
            std::string::npos);
}

TEST(ShardResume, CheckpointIsAValidShardFileAfterEveryItem) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const std::string path =
      std::filesystem::temp_directory_path() /
      "rtcad_resume_checkpoint_test.json";
  std::filesystem::remove(path);

  // At every completion the on-disk checkpoint must parse as a shard
  // file for this shard — that is exactly what a crashed process leaves
  // for the next --resume.
  std::size_t seen = 0;
  const ShardRun run = run_shard_resume(
      corpus, 0, 1, nullptr, {}, path, [&](std::size_t n) {
        seen = n;
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        std::ostringstream text;
        text << in.rdbuf();
        const ShardRun snap = parse_shard_json(text.str());
        EXPECT_EQ(snap.shard, 0u);
        EXPECT_EQ(snap.of, 1u);
        EXPECT_EQ(snap.items.size(), n);
      });
  EXPECT_EQ(seen, corpus.size());

  // The final checkpoint IS the complete shard file.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), to_shard_json(run));
  std::filesystem::remove(path);
}

TEST(ShardResume, ResumingACompletePartialComputesNothing) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun fresh = run_shard(corpus, 0, 1);
  std::size_t computed = 0;
  const ShardRun resumed = run_shard_resume(
      corpus, 0, 1, &fresh, {}, "", [&](std::size_t n) { computed = n; });
  EXPECT_EQ(computed, 0u);
  EXPECT_EQ(to_shard_json(resumed), to_shard_json(fresh));
}

TEST(Shard, RunShardRespectsTheContext) {
  // A pre-cancelled context makes every item of every shard fail with the
  // "cancelled" kind — and the merge still reassembles cleanly.
  CancelToken token;
  token.request_cancel();
  FlowContext ctx;
  ctx.cancel = &token;
  std::vector<BatchSpec> corpus;
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  corpus.push_back(BatchSpec{"celement", celement_stg(), si, {}});
  corpus.push_back(BatchSpec{"toggle", toggle_stg(), si, {}});
  std::vector<ShardRun> shards;
  for (std::size_t i = 0; i < 2; ++i)
    shards.push_back(run_shard(corpus, i, 2, ctx));
  const BatchResult merged = merge_shards(shards);
  ASSERT_EQ(merged.items.size(), 2u);
  for (const auto& item : merged.items) {
    EXPECT_FALSE(item.ok);
    EXPECT_EQ(item.diagnostic.kind, "cancelled");
  }
}

}  // namespace
}  // namespace rtcad
