#!/usr/bin/env bash
# Runs the whole figure battery (`experiments --jobs 2 all`) and diffs
# each simulated point's exact leaves against ci/battery-leaves.jsonl at
# 0%: label, cycles, commits, aborts, events_processed, event_queue_peak
# and the FxHash of the point's RunStats JSON, one line per point in
# submission order (the same at any --jobs). Host wall time is left out.
#
#   ci/battery-leaves.sh          diff against ci/battery-leaves.jsonl;
#                                 any changed, new or vanished point fails
#   ci/battery-leaves.sh --bless  rewrite ci/battery-leaves.jsonl (only
#                                 for a deliberate model change)
set -euo pipefail
cd "$(dirname "$0")/.."

bless=0
case "${1:-}" in
  --bless) bless=1 ;;
  "") ;;
  *) echo "usage: ci/battery-leaves.sh [--bless]" >&2; exit 2 ;;
esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cargo run --release -q -p lockiller-bench --bin experiments -- \
  --jobs 2 --bench-json "$work/lab.json" all > "$work/stdout.txt"

python3 - "$work/lab.json" > "$work/leaves.jsonl" <<'EOF'
import json, sys
keys = ["label", "cycles", "commits", "aborts", "events_processed",
        "event_queue_peak", "stats_digest"]
for row in json.load(open(sys.argv[1]))["points"]:
    print(json.dumps({k: row[k] for k in keys}))
EOF

if [ "$bless" -eq 1 ]; then
  cp "$work/leaves.jsonl" ci/battery-leaves.jsonl
  echo "blessed ci/battery-leaves.jsonl ($(wc -l < ci/battery-leaves.jsonl) points)"
else
  diff ci/battery-leaves.jsonl "$work/leaves.jsonl"
  echo "battery leaves identical ($(wc -l < ci/battery-leaves.jsonl) points)"
fi
