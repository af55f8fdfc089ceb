#!/usr/bin/env bash
# Wall time of every test in one test binary, each run alone, slowest first.
#
#   scripts/test-times.sh <cargo test target args>
#
# e.g. `scripts/test-times.sh -p dacapo-core --lib` or
# `scripts/test-times.sh --test integration_cluster` (debug profile, as the
# tier-1 `cargo test` runs it; add `--release` for the release one). The
# arguments must select one test binary. Builds it once, lists its tests
# (`--list --format terse`), runs each by exact name on one thread from the
# package's directory (where `cargo test` runs it), and prints seconds and
# name per test, sorted, then the sum. A failing test is marked FAILED and
# counted like the others. Measurement only: it changes no test or profile.
set -euo pipefail
if [ "$#" -lt 1 ]; then
    echo "usage: scripts/test-times.sh <cargo test target args>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

# The test executables `cargo test` would run for these arguments, with the
# manifest each belongs to, from cargo's JSON build messages.
artifacts=$(cargo test --no-run --message-format=json "$@" 2>/dev/null |
    grep '"reason":"compiler-artifact"' | grep '"test":true' | grep '"executable":"' |
    sed 's/.*"manifest_path":"\([^"]*\)".*"executable":"\([^"]*\)".*/\1 \2/')
if [ "$(wc -l <<<"$artifacts")" -ne 1 ] || [ -z "$artifacts" ]; then
    echo "test-times.sh: '$*' must select exactly one test binary; it selects:" >&2
    echo "${artifacts:-(none)}" >&2
    exit 2
fi
read -r manifest binary <<<"$artifacts"
cd "$(dirname "$manifest")"

times=$(mktemp)
trap 'rm -f "$times"' EXIT
"$binary" --list --format terse | sed -n 's/: test$//p' | while read -r name; do
    start=$(date +%s.%N)
    status=""
    "$binary" --exact "$name" --test-threads 1 -q >/dev/null 2>&1 </dev/null || status=" FAILED"
    end=$(date +%s.%N)
    echo "$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.2f", b - a }') $name$status" >>"$times"
done
sort -rn "$times"
awk '{ sum += $1; n++ } END { printf "%.2f s over %d tests, %s\n", sum, n, "'"$(basename "$binary")"'" }' "$times"
