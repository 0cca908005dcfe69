#!/bin/sh
# Run t1-raid5, t2-cache-sweep and fleet-demo once each, each in its own
# process, from the repository root.
#
#   perfbench/run_all.sh [SEED] [SECONDS] [TRACE]
#
# SEED defaults to 0 (the repository's presets, checked against
# perfbench/digests.txt), SECONDS to 50, TRACE to 0 (end-to-end metrics;
# 1 gives the per-layer metrics of a traced run).
set -e
for workload in t1-raid5 t2-cache-sweep fleet-demo; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "${1:-0}" --seconds "${2:-50}" --trace "${3:-0}"
done
