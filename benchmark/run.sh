#!/usr/bin/env bash
# Builds the benchmark (release, offline, once) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one fresh process; the last line of stdout is the
#       JSON result (this is the command BENCHMARK.json names)
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
#       every workload, each in a fresh process, untraced (and traced with
#       --traced); writes benchmark/out/results.json
#
# Run from the repository root. Build time is not part of any metric.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/tas-benchmark"

out="$here/out"
case " $* " in
    *" --workload "*) exec "$bin" --out "$out" "$@" ;;
esac

seed=1
seconds=8
traced=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        --traced) traced=1 ;;
        *) echo "run.sh: unknown argument $1 (without --workload: --seed, --seconds, --traced)" >&2
           exit 2 ;;
    esac
    shift
done

mkdir -p "$out"
status=0
parts=()
for w in rpc64_tas_sim bulk_loss_tas_sim kv_linux_sim fp_rx_256k fp_duplex_1k; do
    for t in 0 1; do
        if [ "$t" = 1 ] && [ "$traced" = 0 ]; then
            continue
        fi
        rm -f "$out/$w.trace$t.json"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --out "$out" \
            || status=1
        parts+=("$out/$w.trace$t.json")
    done
done

{
    printf '[\n'
    sep=''
    for p in "${parts[@]}"; do
        if [ -f "$p" ]; then
            printf '%s' "$sep"
            cat "$p"
            sep=$',\n'
        fi
    done
    printf '\n]\n'
} > "$out/results.json"
echo "wrote $out/results.json"
exit "$status"
