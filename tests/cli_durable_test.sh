#!/usr/bin/env bash
# End-to-end smoke of the durable CLI path (ctest label `integration`):
# `serve` with a rating log and a checkpoint directory boots from the
# seed and writes a first checkpoint, `ckpt-ls` lists it as verified,
# `wal-dump` reads the empty log, and a second `serve` boots from that
# checkpoint.  Runs in a temporary directory.
#
# Usage: cli_durable_test.sh <path-to-cfsf_cli>
set -euo pipefail

cli="${1:?usage: cli_durable_test.sh <path-to-cfsf_cli>}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

serve() {
  "$cli" serve --port=0 --wal-dir=W --ckpt-dir=C --ckpt-interval-ms=50 \
    --duration-ms="$1" < /dev/null
}

out="$(serve 2000)"
echo "$out"
grep -q 'recovered from seed' <<< "$out" ||
  fail "the first serve did not boot from the seed"

# The first checkpoint is always written, even with nothing folded.
out="$("$cli" ckpt-ls --dir=C)"
echo "$out"
grep -Eq '^ckpt .* ok$' <<< "$out" || fail "ckpt-ls listed no verified checkpoint"

out="$("$cli" wal-dump --dir=W)"
echo "$out"
grep -q '^0 record(s)' <<< "$out" || fail "wal-dump did not report an empty log"

out="$(serve 300)"
echo "$out"
grep -q 'recovered from checkpoint' <<< "$out" ||
  fail "the second serve did not boot from the checkpoint"

echo "PASS"
