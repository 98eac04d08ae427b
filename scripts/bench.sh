#!/bin/sh
# Record a performance snapshot of the experiment engine into
# BENCH_<date>.json, or compare two snapshots (run from anywhere inside
# the repo).
#
#   scripts/bench.sh                      # full sweep at 1/8 scale
#   SCALE=32 scripts/bench.sh             # cheaper sweep
#   OUT=bench-ci.json scripts/bench.sh    # custom output path
#   scripts/bench.sh compare OLD NEW      # per-experiment deltas; exits
#                                         # non-zero on a >10% regression
#                                         # (see tools/benchcmp flags)
#
# The JSON records the parallel prefetch phase, a per-phase breakdown
# (load/reorder/record/replay/direct engine time + render), per-
# experiment render times and the total, plus GOMAXPROCS — compare
# files across PRs to track the perf trajectory; `compare` prints
# phase:* delta rows so a regression localizes to a phase. A second
# snapshot (<out>-sampled.json) times the set-sampled fast tier against
# full-fidelity replay on the fig2 sweep, and a third
# (<out>-corun.json) times the shared-LLC co-run fairness sweep.
set -eu
caller="$PWD"
cd "$(dirname "$0")/.."

if [ "${1:-}" = "compare" ]; then
    shift
    # Rebase relative snapshot paths against the caller's directory (the
    # script cd's to the repo root so `go run ./tools/benchcmp` resolves).
    i=0; n=$#
    while [ "$i" -lt "$n" ]; do
        a="$1"; shift
        case "$a" in -*|/*) ;; *) a="$caller/$a" ;; esac
        set -- "$@" "$a"
        i=$((i+1))
    done
    exec go run ./tools/benchcmp "$@"
fi

out="${OUT:-BENCH_$(date +%Y-%m-%d).json}"
sampled_out="${OUT_SAMPLED:-${out%.json}-sampled.json}"
corun_out="${OUT_CORUN:-${out%.json}-corun.json}"
scale="${SCALE:-8}"

go build ./...
echo "running full experiment sweep at 1/$scale scale..." >&2
go run ./cmd/graspsim -exp all -scale "$scale" -bench-json "$out" > /dev/null

# Sampled fast tier on the fig2 sweep: each run records a replay-sampled
# vs replay-full phase pair plus its sample_k and codec-layer prune ratio
# in the snapshot, so the fast tier's real speedup (past the decode bound
# via masked decode — DESIGN.md Sec. 14) is tracked per
# release and per divisor instead of assumed. <out>-sampled.json holds
# the default-K run (benchcmp-compatible with pre-PR-9 snapshots);
# <out>-sampled-k{4,16,64}.json hold the K sweep.
echo "running sampled-tier fig2 sweep at 1/$scale scale..." >&2
go run ./cmd/graspsim -exp fig2 -scale "$scale" -fidelity sampled \
    -bench-json "$sampled_out" > /dev/null
for k in 4 16 64; do
    echo "running sampled-tier fig2 sweep at 1/$scale scale, K=$k..." >&2
    go run ./cmd/graspsim -exp fig2 -scale "$scale" -fidelity sampled \
        -sample-k "$k" -bench-json "${sampled_out%.json}-k$k.json" > /dev/null
done

# Co-run fairness sweep: the interleaved shared-LLC replays land in a
# `corun` phase entry (DESIGN.md Sec. 15), so the multi-programmed
# tier's cost is tracked per release alongside the solo engine's.
echo "running co-run fairness sweep at 1/$scale scale..." >&2
go run ./cmd/graspsim -exp corun -scale "$scale" \
    -bench-json "$corun_out" > /dev/null

# Hot-path micro smoke (not recorded; printed for the log).
go test -run '^$' -bench 'PolicyGRASP$|PageRankSimulated$' -benchtime=1x .

echo "wrote $out, $sampled_out (+ K-sweep variants) and $corun_out" >&2
