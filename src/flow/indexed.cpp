#include "flow/indexed.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/workpool.hpp"

namespace rtcad {

void run_indexed(std::size_t n, const FlowContext& ctx,
                 const std::function<void(std::size_t i)>& body) {
  const std::size_t requested = static_cast<std::size_t>(
      WorkPool::effective_threads(ctx.budget.corpus));
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(requested, n));
  WorkPool pool(static_cast<int>(workers));
  pool.for_each_index(n, body);
}

void FieldFingerprint::mix(const std::string& field) {
  for (const char c : field) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  h_ ^= 0x100;  // separator: no byte can collide with it
  h_ *= 1099511628211ull;
}

std::string FieldFingerprint::hex() const {
  return strprintf("%016llx", static_cast<unsigned long long>(h_));
}

std::vector<std::size_t> shard_indices(std::size_t total, std::size_t shard,
                                       std::size_t of) {
  RTCAD_EXPECTS(of >= 1 && shard < of);
  std::vector<std::size_t> out;
  for (std::size_t i = shard; i < total; i += of) out.push_back(i);
  return out;
}

void append_indexed_item(std::string* out, std::size_t index,
                         const std::string& record_json, bool last) {
  *out += strprintf("    {\"index\": %zu, \"record\": ", index);
  *out += record_json;
  *out += last ? "}\n" : "},\n";
}

ShardHeader shard_header_of_json(const ShardKind& words, const Json& root) {
  const std::string label = words.label;
  const std::string where = label + ": shard file";
  const long long schema = json_require_int(root, "schema", where);
  if (schema != kShardSchema)
    throw Error(strprintf(
        "%s: unsupported schema version %lld (this build speaks %d)",
        words.label, schema, kShardSchema));
  if (json_require_string(root, "kind", where) != words.kind)
    throw Error(strprintf("%s: \"kind\" must be \"%s\"", words.label,
                          words.kind));
  ShardHeader h;
  h.shard = json_require_uint(root, "shard", where);
  h.of = json_require_uint(root, "of", where);
  h.total = json_require_uint(root, words.total_key, where);
  h.fingerprint = json_require_string(root, "fingerprint", where);
  if (h.of < 1) throw Error(label + ": \"of\" must be >= 1");
  if (h.shard >= h.of)
    throw Error(strprintf("%s: shard id %zu out of range (of %zu)",
                          words.label, h.shard, h.of));
  return h;
}

void check_shard_set(const ShardKind& words,
                     const std::vector<const ShardHeader*>& shards,
                     const std::vector<std::vector<std::size_t>>& indices) {
  if (shards.empty()) throw Error("merge: no shard files given");
  const ShardHeader& first = *shards[0];
  const std::size_t of = first.of;
  if (shards.size() != of)
    throw Error(strprintf("merge: got %zu shard files but shards declare "
                          "\"of\": %zu",
                          shards.size(), of));

  std::vector<std::size_t> position(of, shards.size());  // id -> position
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const ShardHeader& s = *shards[k];
    if (s.of != of)
      throw Error(strprintf("merge: shard %zu declares \"of\": %zu, "
                            "expected %zu",
                            s.shard, s.of, of));
    if (s.total != first.total)
      throw Error(strprintf("merge: shard %zu declares %s size %zu, "
                            "expected %zu",
                            s.shard, words.total_key, s.total, first.total));
    if (s.fingerprint != first.fingerprint)
      throw Error(strprintf(
          "merge: shard %zu was produced from a different %s or flags "
          "(fingerprint %s, expected %s) — every shard process must get "
          "the same %s and flags",
          s.shard, words.source, s.fingerprint.c_str(),
          first.fingerprint.c_str(), words.source));
    if (s.shard >= of)
      throw Error(strprintf("merge: shard id %zu out of range (of %zu)",
                            s.shard, of));
    if (position[s.shard] != shards.size())
      throw Error(strprintf("merge: duplicate shard id %zu", s.shard));
    position[s.shard] = k;
  }
  // shards.size() == of and no duplicates => every id present.

  for (std::size_t id = 0; id < of; ++id) {
    const std::vector<std::size_t>& held = indices[position[id]];
    const std::vector<std::size_t> expected =
        shard_indices(first.total, id, of);
    if (held.size() != expected.size())
      throw Error(strprintf("merge: shard %zu holds %zu items, expected %zu",
                            id, held.size(), expected.size()));
    for (std::size_t k = 0; k < held.size(); ++k)
      if (held[k] != expected[k])
        throw Error(strprintf(
            "merge: shard %zu item %zu has index %zu, expected %zu (shards "
            "own index ≡ shard-id mod %zu, in increasing order)",
            id, k, held[k], expected[k], of));
  }
}

}  // namespace rtcad
