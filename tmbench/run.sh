#!/usr/bin/env bash
# Build tmbench from this checkout, then run it pinned to one CPU.
#
#   bash tmbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
#   bash tmbench/run.sh compare A.jsonl B.jsonl      (any tmbench command)
#
# Builds into $CARGO_TARGET_DIR (default: .bench_build at the checkout
# root). Pinning keeps the OS-thread guests' rendezvous on one CPU; see
# README.md for the measurements behind it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/tmbench"

# The first CPU this process may run on (not always CPU 0 in a container).
cpu="$(awk '/^Cpus_allowed_list:/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status 2>/dev/null || true)"
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
echo "[run.sh] taskset or Cpus_allowed_list unavailable; running unpinned" >&2
exec "$bin" "$@"
