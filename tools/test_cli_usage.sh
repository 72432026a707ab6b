#!/usr/bin/env bash
# Usage-error contract of `rtflow_cli` for integer flags: every value goes
# through one strict parser, so trailing garbage, a sign where none is
# allowed, an overflowing digit string or an out-of-range value is a
# usage error (exit 2, a message on stderr) — never a prefix parse, a
# silent clamp or a garbage-to-0 read.
#
# Usage: test_cli_usage.sh /path/to/rtflow_cli
set -u

CLI="${1:?usage: test_cli_usage.sh /path/to/rtflow_cli}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rtflow_cli_usage.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect_usage_error ARGS... : exit 2 and a non-empty stderr.
expect_usage_error() {
  "$CLI" "$@" >"$WORK/out" 2>"$WORK/err"
  local code=$?
  [ "$code" -eq 2 ] || fail "'$*' exited $code, expected 2"
  [ -s "$WORK/err" ] || fail "'$*' printed no usage error"
}

expect_usage_error batch --threads 4x
expect_usage_error batch --threads 0
expect_usage_error batch --threads ""
expect_usage_error batch --sg-threads -1
expect_usage_error batch --csc-threads " 2"
expect_usage_error batch --max-states 12abc
expect_usage_error batch --max-states 99999999999999999999999
expect_usage_error batch --pipeline-stages +3
expect_usage_error batch --deadline-ms 1.5
expect_usage_error shard --shard 1/2x
expect_usage_error shard --shard 3/3
expect_usage_error shard --shard 0/0
expect_usage_error sweep --spec mmu --seed 7q
expect_usage_error sweep --spec mmu --sim-ps 0
expect_usage_error drive --shards 2x --work-dir "$WORK/drive"

"$CLI" batch --threads 4x 2>"$WORK/err" >/dev/null
grep -q -- "--threads must be a number >= 1" "$WORK/err" \
  || fail "--threads 4x: unexpected message: $(cat "$WORK/err")"

# Well-formed values still run.
"$CLI" batch --corpus builtin --pipeline-stages 2 --threads 2 \
  --sg-threads 0 --max-states 100000 --out "$WORK/ok.json" \
  || fail "a well-formed batch did not run"

echo "PASS: strict integer flags"
