#!/usr/bin/env bash
# Lints the demo hazard specs plus every tmverify corpus kernel with
# `tmlint --json`, and the compiled VM bytecode (spec kernels + STAMP
# workloads) with `tmlint kernel --json`, concatenating each stream's
# diagnostics in a fixed order.
#
#   ci/tmlint-smoke.sh          diff against ci/tmlint-baseline.jsonl
#                               and ci/tmlint-kernel-baseline.jsonl;
#                               any new or vanished diagnostic fails
#   ci/tmlint-smoke.sh --bless  rewrite both checked-in baselines
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
kout=$(mktemp)
trap 'rm -f "$out" "$kout"' EXIT

# tmlint exits 1 when an error-severity diagnostic fires (the
# mixed-access demo is supposed to); only exit 2 (usage/parse) is fatal.
lint() {
  cargo run --release -q -p tmstatic --bin tmlint -- "$@" >> "$out" && rc=0 || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "tmlint failed ($rc) for: $*" >&2
    exit "$rc"
  fi
}

# Demo hazards: mixed-access race, capacity overflow, hand-off cycle.
lint --prog '2/c:L0,S1/p:L1' --json
lint --prog '6/c:L0,L1,L2,S0/c:L3,L4,L5,S3' --system LockillerTM --tiny-l1 --json
lint --prog '2/c:L0,S1/c:L1,S0' --json

# Every corpus witness kernel, in sorted filename order, under the
# geometry the witness was found with.
for w in crates/tmverify/tests/corpus/*.json; do
  mapfile -t fields < <(python3 -c "
import json, sys
w = json.load(open(sys.argv[1]))
print(w['prog'])
print(w['system'])
print(1 if w.get('tiny_l1') else 0)
" "$w")
  args=(--prog "${fields[0]}" --system "${fields[1]}" --json)
  [ "${fields[2]}" = 1 ] && args+=(--tiny-l1)
  lint "${args[@]}"
done

# Kernel mode: the same demo specs compiled to guest bytecode, plus the
# STAMP kernel programs (kmeans both contention modes; intruder-flow is
# the Top-degradation case and must stay diagnostic-free).
klint() {
  cargo run --release -q -p tmstatic --bin tmlint -- kernel "$@" >> "$kout" && rc=0 || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "tmlint kernel failed ($rc) for: $*" >&2
    exit "$rc"
  fi
}
klint --prog '2/c:L0,S1/p:L1' --json
klint --prog '6/c:L0,L1,L2,S0/c:L3,L4,L5,S3' --system LockillerTM --tiny-l1 --json
klint --prog '2/c:L0,S1/c:L1,S0' --json
klint --stamp kmeans+ --threads 2 --system LockillerTM --json
klint --stamp kmeans --threads 2 --system LockillerTM --json
klint --stamp intruder-flow --threads 2 --system LockillerTM --json

if [ "${1:-}" = "--bless" ]; then
  mv "$out" ci/tmlint-baseline.jsonl
  mv "$kout" ci/tmlint-kernel-baseline.jsonl
  trap - EXIT
  echo "blessed $(wc -l < ci/tmlint-baseline.jsonl) diagnostic(s) into ci/tmlint-baseline.jsonl"
  echo "blessed $(wc -l < ci/tmlint-kernel-baseline.jsonl) diagnostic(s) into ci/tmlint-kernel-baseline.jsonl"
else
  diff -u ci/tmlint-baseline.jsonl "$out"
  echo "tmlint diagnostics match the baseline ($(wc -l < "$out") diagnostic(s))"
  diff -u ci/tmlint-kernel-baseline.jsonl "$kout"
  echo "tmlint kernel diagnostics match the baseline ($(wc -l < "$kout") diagnostic(s))"
fi
