#!/usr/bin/env bash
# End-to-end smoke of `cfsf_cli add-user` (ctest label `integration`):
# fit a model on the synthetic defaults (500 users), enrol a new user
# from three ratings and save the grown model, then verify, predict and
# recommend from the saved bundle.  Runs in a temporary directory.
#
# Usage: cli_add_user_test.sh <path-to-cfsf_cli>
set -euo pipefail

cli="${1:?usage: cli_add_user_test.sh <path-to-cfsf_cli>}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$cli" fit --model=a.bin

out="$("$cli" add-user --model=a.bin --ratings=0:5,3:4,7:1 --save=b.bin)"
echo "$out"
grep -Eq '^registered user 500 \(cluster [0-9]+\)$' <<< "$out" ||
  fail "add-user did not report user 500"

"$cli" verify-model --model=b.bin

out="$("$cli" predict --model=b.bin --user=500 --item=20)"
echo "$out"
value="$(sed -n 's/^user 500, item 20 -> \(.*\)$/\1/p' <<< "$out")"
[[ "$value" =~ ^-?[0-9]+\.[0-9]+$ ]] ||
  fail "predict gave '$value', not a finite value"

out="$("$cli" recommend --model=b.bin --user=500 --n=5)"
echo "$out"
[[ "$(grep -c '^item ' <<< "$out")" -eq 5 ]] ||
  fail "recommend did not list 5 items"

echo "PASS"
