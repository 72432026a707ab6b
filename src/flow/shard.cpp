#include "flow/shard.hpp"

#include <mutex>

#include "flow/json.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

namespace rtcad {
namespace {

/// Decode one item record — the exact object item_record_json renders.
BatchItemResult record_of_json(const Json& rec, const std::string& where) {
  BatchItemResult item;
  item.name = json_require_string(rec, "name", where);
  item.ok = json_require_bool(rec, "ok", where);
  if (item.ok) {
    item.states = static_cast<int>(json_require_int(rec, "states", where));
    item.states_reduced =
        static_cast<int>(json_require_int(rec, "states_reduced", where));
    item.state_signals_added =
        static_cast<int>(json_require_int(rec, "state_signals", where));
    item.literals = static_cast<int>(json_require_int(rec, "literals", where));
    item.transistors =
        static_cast<int>(json_require_int(rec, "transistors", where));
    item.constraints = json_require_uint(rec, "constraints", where);
    const Json& stages = json_require(rec, "stages", where);
    if (stages.kind != Json::Kind::kArray)
      throw Error(where + ": field \"stages\" must be an array");
    for (const Json& stage : stages.arr) {
      item.stages.push_back(
          FlowStage{json_require_string(stage, "name", where),
                    json_require_string(stage, "detail", where)});
    }
  } else {
    const Json& diag = json_require(rec, "diagnostic", where);
    item.diagnostic.kind = json_require_string(diag, "kind", where);
    item.diagnostic.message = json_require_string(diag, "message", where);
  }
  return item;
}

std::string batch_extras_json(const ShardRun& run) {
  int ok = 0, failed = 0;
  for (const ShardItem& s : run.items) (s.record.ok ? ok : failed) += 1;
  return strprintf("  \"ok\": %d,\n  \"failed\": %d,\n", ok, failed);
}

// The batch kind of the shared envelope. "ok"/"failed" are derived from
// the records on write and not read back.
const ShardCodec<BatchItemResult, NoExtras> kBatchShard{
    {"shard", "corpus", "shard JSON", "corpus"},
    batch_extras_json,
    [](const Json&, const std::string&) { return NoExtras{}; },
    [](const BatchItemResult& item) { return item_record_json(item); },
    record_of_json};

}  // namespace

std::string corpus_fingerprint(const std::vector<BatchSpec>& corpus) {
  FieldFingerprint fp;
  for (const BatchSpec& item : corpus) {
    fp.mix(item.name);
    fp.mix(item.opts.mode == FlowMode::kRelativeTiming ? "rt" : "si");
    fp.mix(std::to_string(item.opts.sg.max_states));
    // Result-shaping: shards cut at different stop points must never
    // merge. The empty string (the default = the synth stage) keeps the
    // pre-back-end fingerprints unchanged.
    fp.mix(item.opts.stop_after);
  }
  return fp.hex();
}

BatchItemResult parse_item_record_json(const std::string& text) {
  return record_of_json(parse_json(text, "shard JSON"),
                        "shard JSON: item record");
}

ShardRun run_shard(const std::vector<BatchSpec>& corpus, std::size_t shard,
                   std::size_t of, const FlowContext& ctx) {
  return run_shard_resume(corpus, shard, of, nullptr, ctx);
}

ShardRun run_shard_resume(
    const std::vector<BatchSpec>& corpus, std::size_t shard, std::size_t of,
    const ShardRun* partial, const FlowContext& ctx,
    const std::string& checkpoint_path,
    const std::function<void(std::size_t computed)>& on_item) {
  const std::vector<std::size_t> indices =
      shard_indices(corpus.size(), shard, of);

  ShardRun run;
  run.shard = shard;
  run.of = of;
  run.total = corpus.size();
  run.fingerprint = corpus_fingerprint(corpus);

  // Slots in owned-index order: owned index i sits at position i / of.
  std::vector<BatchItemResult> slots(indices.size());
  std::vector<bool> have(indices.size(), false);

  // Validate the partial file and fill the slots its records cover. Every
  // mismatch is the operator resuming against the wrong corpus or the
  // wrong shard; that must fail loudly before any work is reused.
  if (partial) {
    if (partial->fingerprint != run.fingerprint)
      throw Error(strprintf(
          "resume: partial shard file was produced from a different corpus "
          "or flags (fingerprint %s, expected %s)",
          partial->fingerprint.c_str(), run.fingerprint.c_str()));
    if (partial->shard != shard || partial->of != of ||
        partial->total != corpus.size())
      throw Error(strprintf(
          "resume: partial file is shard %zu/%zu over %zu items, expected "
          "%zu/%zu over %zu",
          partial->shard, partial->of, partial->total, shard, of,
          corpus.size()));
    for (const ShardItem& s : partial->items) {
      if (s.index % of != shard || s.index >= corpus.size())
        throw Error(strprintf(
            "resume: partial file holds corpus index %zu, which shard "
            "%zu/%zu does not own",
            s.index, shard, of));
      // A "cancelled" record is when the previous run was killed, not a
      // result of the spec; recompute it.
      if (!s.record.ok && s.record.diagnostic.kind == "cancelled") continue;
      slots[s.index / of] = s.record;
      have[s.index / of] = true;
    }
  }
  std::vector<std::size_t> missing;  // positions into `indices`/`slots`
  for (std::size_t k = 0; k < indices.size(); ++k)
    if (!have[k]) missing.push_back(k);

  // Assemble the (possibly still incomplete) run from the filled slots,
  // in increasing index order — the writer's invariant.
  const auto assemble = [&](ShardRun* out) {
    out->items.clear();
    for (std::size_t k = 0; k < indices.size(); ++k)
      if (have[k]) out->items.push_back(ShardItem{indices[k], slots[k]});
  };

  // Compute the missing items on the corpus-level pool — plus, when
  // asked, a checkpoint rewrite after every completion, so a crash at ANY
  // point leaves a valid partial file behind. The mutex serializes only
  // the bookkeeping; the flow runs outside it.
  std::mutex mu;
  std::size_t computed = 0;
  run_indexed(missing.size(), ctx, [&](std::size_t m) {
    const std::size_t k = missing[m];
    BatchItemResult item = run_batch_item(corpus[indices[k]], ctx);
    std::lock_guard<std::mutex> lock(mu);
    slots[k] = std::move(item);
    have[k] = true;
    ++computed;
    if (!checkpoint_path.empty()) {
      ShardRun snap = run;  // header fields; items assembled below
      assemble(&snap);
      atomic_write_file(checkpoint_path, to_shard_json(snap));
    }
    if (on_item) on_item(computed);
  });

  assemble(&run);
  return run;
}

std::string to_shard_json(const ShardRun& run) {
  return to_shard_envelope(kBatchShard, run);
}

ShardRun parse_shard_json(const std::string& text) {
  return shard_run_of_json(parse_json(text, kBatchShard.words.label));
}

ShardRun shard_run_of_json(const Json& root) {
  return shard_of_json(kBatchShard, root);
}

BatchResult merge_shards(const std::vector<ShardRun>& shards) {
  return tally_batch(merge_shard_records(kBatchShard.words, shards));
}

}  // namespace rtcad
