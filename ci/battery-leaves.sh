#!/usr/bin/env bash
# Runs the whole figure battery (`experiments --jobs 2 all`) and diffs
# each simulated point's exact leaves against ci/battery-leaves.jsonl at
# 0%: label, cycles, commits, aborts, events_processed, event_queue_peak
# and the FxHash of the point's RunStats JSON, one line per point in
# submission order (the same at any --jobs). Host time is left out of the
# leaves; after the verdict the script prints the battery's wall time,
# CPU time and peak RSS, from the rusage of the experiments process.
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

cargo build --release -q -p lockiller-bench --bin experiments
experiments="${CARGO_TARGET_DIR:-target}/release/experiments"

# Run the battery as python3's child, so the child's rusage is its cost.
python3 - "$work/cost.txt" "$experiments" \
  --jobs 2 --bench-json "$work/lab.json" all > "$work/stdout.txt" <<'EOF'
import resource, subprocess, sys, time
start = time.monotonic()
status = subprocess.call(sys.argv[2:])
wall = time.monotonic() - start
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(sys.argv[1], "w") as f:
    f.write(f"battery cost: wall {wall:.1f} s, user {ru.ru_utime:.1f} s, "
            f"sys {ru.ru_stime:.1f} s, peak RSS {ru.ru_maxrss / 1024:.0f} MiB\n")
sys.exit(status)
EOF

python3 - "$work/lab.json" > "$work/leaves.jsonl" <<'EOF'
import json, sys
keys = ["label", "cycles", "commits", "aborts", "events_processed",
        "event_queue_peak", "stats_digest"]
for row in json.load(open(sys.argv[1]))["points"]:
    print(json.dumps({k: row[k] for k in keys}))
EOF

status=0
if [ "$bless" -eq 1 ]; then
  cp "$work/leaves.jsonl" ci/battery-leaves.jsonl
  echo "blessed ci/battery-leaves.jsonl ($(wc -l < ci/battery-leaves.jsonl) points)"
elif diff ci/battery-leaves.jsonl "$work/leaves.jsonl"; then
  echo "battery leaves identical ($(wc -l < ci/battery-leaves.jsonl) points)"
else
  status=1
fi
cat "$work/cost.txt"
exit "$status"
