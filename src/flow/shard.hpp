// Multi-process sharding for the batch flow — the seam the ROADMAP's
// "shard run_batch across processes/machines" item asked for.
//
// The protocol is deliberately dumb: every process computes the SAME
// corpus (same flags, same file order), shard i of N runs the items whose
// corpus index ≡ i (mod N), and writes a shard file in the shared
// schema-1 envelope of flow/indexed.hpp — per-item records keyed by
// corpus index, where each record is byte-for-byte the object the
// single-process batch JSON would contain. `merge_shards` then reassembles N shard files into a
// BatchResult whose `to_json` rendering is byte-identical to running the
// whole corpus in one process (CI proves this with a 3-shard diff job).
//
// Because every item record is independent and deterministically keyed,
// shards can run on different machines, at different thread settings, in
// any order — determinism of the per-item flow (the repo's core
// invariant) is what makes the merge a pure reassembly.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "flow/batchflow.hpp"
#include "flow/indexed.hpp"

namespace rtcad {

/// One finished corpus item, keyed by its index in the full corpus.
using ShardItem = IndexedRecord<BatchItemResult>;

/// One shard's worth of batch results (the shared envelope of
/// flow/indexed.hpp with kind "shard"; `total` is the FULL corpus size).
/// `fingerprint` is corpus_fingerprint() of the full corpus: merge_shards
/// requires every shard to agree, catching the classic operator error of
/// shards produced from different spec lists, a different order, or
/// different result-shaping flags.
using ShardRun = IndexedShard<BatchItemResult>;

/// Order-sensitive fingerprint of a corpus and its result-shaping options
/// (item names, per-item mode, reachability cap, stop point) as 16 hex
/// digits. Thread settings are deliberately excluded — results are
/// byte-identical across them, so shards may run at different mixtures.
std::string corpus_fingerprint(const std::vector<BatchSpec>& corpus);

/// Run this shard's slice of `corpus` under `ctx` (same batch engine,
/// same determinism). Requires of >= 1 and shard < of. Equivalent to
/// run_shard_resume with no partial, no checkpoint and no hook.
ShardRun run_shard(const std::vector<BatchSpec>& corpus, std::size_t shard,
                   std::size_t of, const FlowContext& ctx = {});

/// Crash-tolerant shard execution (CLI `shard --resume`, and what the
/// `drive` process driver relies on to make retry cheap):
///
///  * `partial` (may be null) is the parse of a previously written —
///    possibly incomplete — shard file for the SAME shard of the SAME
///    corpus. Its records are reused verbatim; only owned indices it does
///    not hold are recomputed. Records with diagnostic kind "cancelled"
///    are NOT reused (a killed run's cancellations are schedule noise,
///    not results). A partial from a different corpus/flags (fingerprint),
///    a different shard/of, or holding a non-owned index throws Error —
///    resuming someone else's file must fail loudly, not merge garbage.
///  * When `checkpoint_path` is non-empty, the shard file is rewritten
///    atomically (temp + rename) after EVERY completed item, so a crashed
///    process always leaves a valid partial file for the next --resume.
///  * `on_item` (may be empty) fires after each item completes and is
///    checkpointed, with the number of newly computed items so far.
///
/// The returned run — and therefore its file — is byte-identical to a
/// fresh `run_shard`, however the work was split across attempts.
ShardRun run_shard_resume(
    const std::vector<BatchSpec>& corpus, std::size_t shard, std::size_t of,
    const ShardRun* partial, const FlowContext& ctx = {},
    const std::string& checkpoint_path = "",
    const std::function<void(std::size_t computed)>& on_item = {});

/// Canonical shard-file JSON: the shared envelope with kind "shard",
/// total key "corpus" and the extras "ok"/"failed". Stable key order,
/// '\n'-terminated, no timings — byte-identical across runs and thread
/// counts, like the batch JSON it embeds.
std::string to_shard_json(const ShardRun& run);

/// Strict parse of a shard file (text, or an already parsed document).
/// Throws rtcad::Error with a position on malformed JSON, a schema
/// version this build does not speak, or missing/mistyped fields.
ShardRun parse_shard_json(const std::string& text);
ShardRun shard_run_of_json(const Json& root);

/// Strict parse of ONE item record — the single-line object
/// `item_record_json` emits. The parse/render pair is a proven byte
/// round-trip (the shard merge is built on it); the result cache stores
/// record bytes and decodes them through this. Throws rtcad::Error on
/// malformed or mistyped input.
BatchItemResult parse_item_record_json(const std::string& text);

/// Reassemble shard files into the single-process batch result through
/// the shared shard-set validator (check_shard_set), which throws
/// rtcad::Error naming the first violation. `to_json(merge_shards(...))`
/// is byte-identical to `to_json(run_batch(corpus))`.
BatchResult merge_shards(const std::vector<ShardRun>& shards);

}  // namespace rtcad
