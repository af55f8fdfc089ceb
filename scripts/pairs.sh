#!/usr/bin/env bash
# The before/after table a performance claim needs, as CHANGES.md entries
# give it: alternating parent/change runs of one workload of the frozen
# benchmark, then per-metric medians, quartiles and wins.
#
#   scripts/pairs.sh <parent-ref> <workload|all> [pairs=10]
#
# `all` runs the workloads BENCHMARK.json names, in its order, on the same two
# builds and prints one table each: a no-gain PR's evidence in one command.
#
# Exports <parent-ref> and this tree (uncommitted edits included) side by
# side under $PAIRS_DIR (default ${TMPDIR:-/tmp}/dacapo-pairs) as `parent/`
# and `change/` — outside the repository and at paths of one length, because
# where a checkout sits can move its build by several per cent (ROADMAP,
# "How a change is measured"). Builds each benchmark into its own target
# directory, from its own root (so each side's own .cargo/config.toml
# applies; a second workload reuses both builds), then runs
# `--seconds 15 --trace 0` on seeds 1..pairs, parent first on odd seeds and
# change first on even ones, each binary from its own root. After each table
# comes one verdict line per end-to-end metric: wins, the median gap against
# the parent's interquartile range, and each side's interquartile range as a
# share of the parent's median beside that metric's BENCHMARK.json bound. It
# invokes `benchmark/` and never edits it. Run nothing else CPU-heavy meanwhile: a
# run pins one core.
set -euo pipefail
if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: scripts/pairs.sh <parent-ref> <workload|all> [pairs=10]" >&2
    exit 2
fi
ref=$1 pairs=${3:-10}
repo=$(cd "$(dirname "$0")/.." && pwd)
if [ "$2" = all ]; then
    # The names in BENCHMARK.json's "workloads" array.
    workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' "$repo/BENCHMARK.json")
else
    workloads=$2
fi
work=${PAIRS_DIR:-${TMPDIR:-/tmp}/dacapo-pairs}
git -C "$repo" rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
    echo "pairs.sh: '$ref' is not a commit" >&2
    exit 2
}

# One end-to-end metric's value out of the benchmark's last stdout line ($json).
value() { grep -o "\"$1\":{\"value\":[^,}]*" <<<"$json" | sed 's/.*://'; }

# Each end-to-end metric's spread bound, from BENCHMARK.json's "end_to_end"
# array, as "name=bound" words.
bounds=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"name"/ { name = $2; gsub(/[",]/, "", name) }
    on && /"bound"/ { bound = $2; gsub(/,/, "", bound); printf "%s=%s ", name, bound }
    on && /^  \]/ { on = 0 }' "$repo/BENCHMARK.json")

rm -rf "$work/parent" "$work/change"
mkdir -p "$work/parent" "$work/change"
git -C "$repo" archive "$ref" | tar -x -C "$work/parent"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
    tar --null -T - -c) | tar -x -C "$work/change"
for side in parent change; do
    echo "building $side ..." >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One workload's alternating pairs, then its table.
table() {
    local workload=$1 runs=$work/$1.runs
    : >"$runs"
    for ((seed = 1; seed <= pairs; seed++)); do
        if ((seed % 2 == 1)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            json=$(cd "$work/$side" && "$work/target-$side/release/dacapo-benchmark" \
                --workload "$workload" --seed "$seed" --seconds 15 --trace 0 | tail -n 1)
            echo "$side $seed $(value steps_per_s) $(value setup_s) $(value peak_rss_mb)" \
                "$(value mean_accuracy_pct) $(grep -o '"failed":[0-9]*' <<<"$json" | sed 's/.*://')" \
                "$(grep -o '"correct":[a-z]*' <<<"$json" | sed 's/.*://')" | tee -a "$runs" >&2
        done
    done

    # Columns of $runs: side seed steps_per_s setup_s peak_rss_mb accuracy failed correct.
    awk -v workload="$workload" -v ref="$ref" -v bounds="$bounds" '
    function quantile(sorted, n, p,    at, lo) {
        at = (n - 1) * p; lo = int(at)
        return sorted[lo + 1] + (at - lo) * (sorted[(lo + 2 > n ? n : lo + 2)] - sorted[lo + 1])
    }
    function summary(side, column,    n, seed, sorted, i, v) {
        n = 0
        for (seed in seen) {
            v = cell[side, seed, column] + 0
            for (i = n++; i >= 1 && sorted[i] > v; i--) sorted[i + 1] = sorted[i]
            sorted[i + 1] = v
        }
        med[side] = quantile(sorted, n, 0.5); q1[side] = quantile(sorted, n, 0.25); q3[side] = quantile(sorted, n, 0.75)
    }
    {
        seen[$2] = 1
        for (c = 3; c <= 6; c++) cell[$1, $2, c] = $c
        failed[$1] += $7
        if ($8 != "true") incorrect[$1]++
    }
    END {
        n = split(bounds, pairs_of, " ")
        for (i = 1; i <= n; i++) { split(pairs_of[i], kv, "="); bound[kv[1]] = kv[2] }
        split("steps_per_s setup_s peak_rss_mb mean_accuracy_pct", name, " ")
        split("higher lower lower higher", better, " ")
        pairs = 0
        for (seed in seen) pairs++
        printf "%s, %d alternating pairs against %s, --seconds 15 --trace 0\n", workload, pairs, ref
        printf "%-18s %34s %34s %8s %6s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
        for (m = 1; m <= 4; m++) {
            summary("parent", m + 2); summary("change", m + 2)
            wins = 0
            for (seed in seen) {
                p = cell["parent", seed, m + 2]; c = cell["change", seed, m + 2]
                if (better[m] == "higher" ? c > p : c < p) wins++
            }
            printf "%-18s %12.4f [%9.4f, %9.4f] %12.4f [%9.4f, %9.4f] %+7.1f%% %3d/%d\n", name[m],
                med["parent"], q1["parent"], q3["parent"], med["change"], q1["change"], q3["change"],
                (med["change"] / med["parent"] - 1) * 100, wins, pairs
            gap = med["change"] - med["parent"]; iqr = q3["parent"] - q1["parent"]
            # The spread check: the interquartile range of each side as a
            # share of the parent median, beside the bound of the metric.
            spread_p = med["parent"] ? 100 * iqr / med["parent"] : 0
            spread_c = med["parent"] ? 100 * (q3["change"] - q1["change"]) / med["parent"] : 0
            verdict[m] = sprintf("%s: %d/%d wins, median gap %.6g against a parent interquartile range of %.6g; interquartile range / parent median: parent %.1f%%, change %.1f%% (bound %g%%)",
                name[m], wins, pairs, gap, iqr, spread_p, spread_c, 100 * bound[name[m]])
        }
        same = 0
        for (seed in seen) if (cell["parent", seed, 6] == cell["change", seed, 6]) same++
        printf "mean_accuracy_pct equal per seed: %d/%d; failed operations parent %d, change %d; incorrect runs parent %d, change %d\n",
            same, pairs, failed["parent"], failed["change"], incorrect["parent"], incorrect["change"]
        for (m = 1; m <= 4; m++) print verdict[m]
    }' "$runs"
}

for workload in $workloads; do
    table "$workload"
    echo
done
