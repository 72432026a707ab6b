// Indexed work: the one engine behind every "N independent items, each
// into its own slot" path of the flow layer — a corpus of specs
// (flow/batchflow, flow/shard, flow/cache) and a fan of variants of one
// spec (flow/sweep). It owns the four things those paths share:
//
//   * the runner — N items on the corpus-level pool, each written to its
//     own slot, so the result never depends on scheduling;
//   * the field fingerprint — FNV-1a 64 over a sequence of fields with an
//     out-of-band separator, naming what a shard was cut from;
//   * the shard envelope (schema 1), one writer and one strict reader:
//       {"schema", "kind", "shard", "of", <total key>, "fingerprint",
//        <kind extras>..., "items": [{"index", "record"}, ...]}
//   * the merge — one validator for a complete shard set, returning the
//     records in index order.
//
// A kind plugs in through a ShardCodec: its words (batch: "shard" over a
// "corpus"; sweep: "sweep-shard" over "variants"), its header extras and
// its record codec. Shard i of N owns the indices ≡ i (mod N) — round
// robin, so every shard gets a mix of cheap and expensive items whatever
// the item order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "flow/context.hpp"
#include "flow/json.hpp"
#include "util/strings.hpp"

namespace rtcad {

/// Run `body(i)` once for every i in [0, n) on the corpus level of
/// `ctx.budget` (0 = hardware concurrency; never more workers than
/// items). Items are claimed in index order by atomic cursor; the body
/// writes only slot i, and order-sensitive merging happens afterwards.
/// Blocks until done; an exception from a body propagates.
void run_indexed(std::size_t n, const FlowContext& ctx,
                 const std::function<void(std::size_t i)>& body);

/// FNV-1a 64 over a sequence of fields, with an out-of-band separator
/// after every field so field boundaries cannot alias ("ab"+"c" vs
/// "a"+"bc"). Shards cut from different inputs or result-shaping flags
/// get different fingerprints and never merge.
class FieldFingerprint {
 public:
  void mix(const std::string& field);
  std::string hex() const;  ///< 16 lowercase hex digits

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Version of the shard envelope this build reads and writes.
inline constexpr int kShardSchema = 1;

/// The indices shard `shard` of `of` owns: shard, shard + of, ... < total.
/// Requires of >= 1 and shard < of.
std::vector<std::size_t> shard_indices(std::size_t total, std::size_t shard,
                                       std::size_t of);

/// The words a kind puts on the envelope and into its error messages.
struct ShardKind {
  const char* kind;       ///< "kind" value: "shard", "sweep-shard"
  const char* total_key;  ///< key of the full item count: "corpus", "variants"
  const char* label;      ///< error prefix: "shard JSON", "sweep JSON"
  const char* source;     ///< what the fingerprint names: "corpus", "spec"
};

/// The header fields every shard kind shares.
struct ShardHeader {
  std::size_t shard = 0;  ///< this shard's id, in [0, of)
  std::size_t of = 1;     ///< total number of shards
  std::size_t total = 0;  ///< item count of the FULL run, across all shards
  std::string fingerprint;
};

template <class Record>
struct IndexedRecord {
  std::size_t index = 0;
  Record record;
};

struct NoExtras {};

/// One shard: the records at the indices it owns, in increasing order,
/// plus the kind's own header fields.
template <class Record, class Extras = NoExtras>
struct IndexedShard : ShardHeader {
  Extras extras;
  std::vector<IndexedRecord<Record>> items;
};

/// What a kind plugs into the envelope. `where` arguments already carry
/// the kind's label.
template <class Record, class Extras>
struct ShardCodec {
  ShardKind words;
  /// Header lines between "fingerprint" and "items", each
  /// `  "key": value,\n`.
  std::string (*extras_json)(const IndexedShard<Record, Extras>&);
  Extras (*extras_of_json)(const Json& root, const std::string& where);
  /// One record as a single-line JSON object, and its strict inverse.
  std::string (*record_json)(const Record&);
  Record (*record_of_json)(const Json& rec, const std::string& where);
};

// --- non-template halves of the envelope and the merge ----------------------

/// `    {"index": I, "record": R}` plus ",\n" or (last) "\n".
void append_indexed_item(std::string* out, std::size_t index,
                         const std::string& record_json, bool last);

/// Strict read of the shared header: schema, kind, shard, of, total and
/// fingerprint, with 0 <= shard < of.
ShardHeader shard_header_of_json(const ShardKind& words, const Json& root);

/// Throws Error naming the first violation of a complete shard set:
/// empty set, file count != "of", disagreeing "of", total or
/// fingerprint, an out-of-range or duplicate shard id, or a shard not
/// holding exactly its owned indices in increasing order. `indices[k]`
/// lists the item indices of `shards[k]` as stored.
void check_shard_set(const ShardKind& words,
                     const std::vector<const ShardHeader*>& shards,
                     const std::vector<std::vector<std::size_t>>& indices);

// --- the envelope and the merge ---------------------------------------------

/// Canonical envelope JSON: stable key order, '\n'-terminated.
template <class Record, class Extras>
std::string to_shard_envelope(const ShardCodec<Record, Extras>& codec,
                              const IndexedShard<Record, Extras>& s) {
  std::string out = "{\n";
  out += strprintf("  \"schema\": %d,\n", kShardSchema);
  out += strprintf("  \"kind\": \"%s\",\n", codec.words.kind);
  out += strprintf("  \"shard\": %zu,\n", s.shard);
  out += strprintf("  \"of\": %zu,\n", s.of);
  out += strprintf("  \"%s\": %zu,\n", codec.words.total_key, s.total);
  out += "  \"fingerprint\": \"" + s.fingerprint + "\",\n";
  out += codec.extras_json(s);
  out += "  \"items\": [\n";
  for (std::size_t k = 0; k < s.items.size(); ++k)
    append_indexed_item(&out, s.items[k].index,
                        codec.record_json(s.items[k].record),
                        k + 1 == s.items.size());
  out += "  ]\n}\n";
  return out;
}

/// Strict read of a parsed envelope. Throws Error on a foreign schema or
/// kind and on missing or mistyped fields.
template <class Record, class Extras>
IndexedShard<Record, Extras> shard_of_json(
    const ShardCodec<Record, Extras>& codec, const Json& root) {
  IndexedShard<Record, Extras> s;
  static_cast<ShardHeader&>(s) = shard_header_of_json(codec.words, root);
  s.extras = codec.extras_of_json(
      root, std::string(codec.words.label) + ": shard file");
  const Json& items = json_require(
      root, "items", std::string(codec.words.label) + ": shard file");
  if (items.kind != Json::Kind::kArray)
    throw Error(std::string(codec.words.label) +
                ": \"items\" must be an array");
  for (std::size_t i = 0; i < items.arr.size(); ++i) {
    const std::string where =
        strprintf("%s: items[%zu]", codec.words.label, i);
    const Json& entry = items.arr[i];
    IndexedRecord<Record> item;
    item.index = json_require_uint(entry, "index", where);
    item.record = codec.record_of_json(json_require(entry, "record", where),
                                       where + ".record");
    s.items.push_back(std::move(item));
  }
  return s;
}

/// Validate a complete shard set (check_shard_set) and return its records
/// in index order — what the single-process run would have produced.
template <class Record, class Extras>
std::vector<Record> merge_shard_records(
    const ShardKind& words, std::vector<IndexedShard<Record, Extras>> shards) {
  std::vector<const ShardHeader*> headers;
  std::vector<std::vector<std::size_t>> indices;
  for (const IndexedShard<Record, Extras>& s : shards) {
    headers.push_back(&s);
    indices.emplace_back();
    for (const IndexedRecord<Record>& item : s.items)
      indices.back().push_back(item.index);
  }
  check_shard_set(words, headers, indices);
  std::vector<Record> records(shards.front().total);
  for (IndexedShard<Record, Extras>& s : shards)
    for (IndexedRecord<Record>& item : s.items)
      records[item.index] = std::move(item.record);
  return records;
}

}  // namespace rtcad
