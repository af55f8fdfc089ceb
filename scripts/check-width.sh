#!/usr/bin/env bash
# What the GEMM's two tensor-layer kernels shipped as, from the release
# benchmark binary's disassembly (`scripts/asm.sh`):
# - On an x86-64 host, `transpose_blocks` (the packing of every `A·Bᵀ` panel
#   and of `transpose_into`) must be a symbol with lane shuffles. The release
#   build turns its zipped eight-row pass into vector loads and interleaving
#   shuffles; a rewrite the loop vectoriser no longer sees through compiles
#   to one scalar move per element and no shuffle, with every result still
#   the same, so only the disassembly can tell.
# - On an AVX-512 host, both GEMM tile symbols (`accumulate_panel`,
#   `accumulate_panel_t`) must touch `zmm` registers. The x86_64 table of
#   .cargo/config.toml turns off LLVM's `prefer-256-bit` tuning; that flag is
#   not a `cfg` target feature, so no test can see it, and this catches it
#   silently not applying (cargo run from outside the repository root, a
#   `RUSTFLAGS` in the environment, which replaces the config's flags, or the
#   table edited away). On a host without `avx512f` the tile's width is not
#   checked.
# Usage: scripts/check-width.sh (also `just check-width`).
set -euo pipefail
cd "$(dirname "$0")/.."
tallies=$(scripts/asm.sh accumulate_panel; scripts/asm.sh transpose_blocks)
echo "$tallies"
x86_64=0 avx512f=0
[ "$(uname -m)" = x86_64 ] && x86_64=1
grep -qw avx512f /proc/cpuinfo 2>/dev/null && avx512f=1
# Columns of a tally: name, count, "insns", then register-name/count pairs.
awk -v x86_64="$x86_64" -v avx512f="$avx512f" '
    { for (i = 4; i < NF; i += 2) count[$1, $i] = $(i + 1); seen[$1] = 1 }
    function need(symbol, column, why) {
        if (!(symbol in seen)) {
            print "check-width: no symbol " symbol " in the benchmark binary" > "/dev/stderr"
            failed = 1
        } else if (count[symbol, column] + 0 == 0) {
            print "check-width: " symbol " has no " column " instruction: " why > "/dev/stderr"
            failed = 1
        }
    }
    END {
        if (x86_64) {
            need("dacapo_tensor::ops::transpose_blocks", "shuf",
                "the transposition is scalar code")
            passed = "transpose_blocks shuffles lanes"
        } else
            passed = "not an x86-64 host, so no transposition to check"
        if (avx512f) {
            why = "the x86_64 table of .cargo/config.toml did not apply on this avx512f host"
            need("dacapo_tensor::ops::accumulate_panel", "zmm", why)
            need("dacapo_tensor::ops::accumulate_panel_t", "zmm", why)
            passed = passed "; both tile symbols run on zmm"
        } else
            passed = passed "; no avx512f on this host, so no tile width to check"
        if (!failed) print "check-width: " passed
        exit failed
    }' <<<"$tallies"
