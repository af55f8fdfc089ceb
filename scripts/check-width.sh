#!/usr/bin/env bash
# The lane width the GEMM register tile shipped at. On an AVX-512 host the
# x86_64 table of .cargo/config.toml turns off LLVM's `prefer-256-bit`
# tuning, so both tile symbols of the release benchmark binary
# (`accumulate_panel`, `accumulate_panel_t`) must touch `zmm` registers. That
# flag is not a `cfg` target feature, so no test can see it; this catches it
# silently not applying (cargo run from outside the repository root, a
# `RUSTFLAGS` in the environment, which replaces the config's flags, or the
# table edited away). On a host without `avx512f` it prints the tallies and
# passes. Usage: scripts/check-width.sh (also `just check-width`).
set -euo pipefail
cd "$(dirname "$0")/.."
tallies=$(scripts/asm.sh accumulate_panel)
echo "$tallies"
if ! grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    echo "check-width: no avx512f on this host, so no lane width to check"
    exit 0
fi
# Columns of a tally: name, count, "insns", then register-name/count pairs.
awk '
    { for (i = 4; i < NF; i += 2) count[$1, $i] = $(i + 1); seen[$1] = 1 }
    END {
        split("dacapo_tensor::ops::accumulate_panel dacapo_tensor::ops::accumulate_panel_t", tile, " ")
        for (t = 1; t <= 2; t++) {
            if (!(tile[t] in seen)) {
                print "check-width: no symbol " tile[t] " in the benchmark binary" > "/dev/stderr"
                failed = 1
            } else if (count[tile[t], "zmm"] + 0 == 0) {
                print "check-width: " tile[t] " has no zmm instruction on an avx512f host:" \
                    " the x86_64 table of .cargo/config.toml did not apply" > "/dev/stderr"
                failed = 1
            }
        }
        exit failed
    }' <<<"$tallies"
echo "check-width: both tile symbols run on zmm"
