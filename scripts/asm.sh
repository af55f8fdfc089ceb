#!/usr/bin/env bash
# What the kernels compiled to: for every symbol of the release benchmark
# binary whose demangled name contains the argument, the instruction count
# and how many of them touch `xmm` / `ymm` / `zmm` registers, are a
# `vcvt*` (int <-> float convert), a `vmul*` or a lane shuffle (`vperm*`,
# `vunpck*`, `vshuf*`) — the tallies CHANGES.md entries quote when they say
# a loop is vectorised, that a convert or a multiply left it, or that a
# transposition moves whole vectors. The binary is the one the frozen benchmark runs
# (`benchmark/target/release/dacapo-benchmark`, or under `CARGO_TARGET_DIR`),
# always built first — incrementally, so a fresh binary costs nothing and an
# edited source or `.cargo/config.toml` is never reported as the old code:
# under the release profile's fat LTO the loop vectoriser runs at link time,
# so only a final binary shows the code that ships.
# Usage: scripts/asm.sh <symbol-substring>, e.g. `quantize_into`.
set -euo pipefail
[ "$#" -eq 1 ] || { echo "usage: $0 <symbol-substring>" >&2; exit 2; }
cd "$(dirname "$0")/.."
binary="${CARGO_TARGET_DIR:-benchmark/target}/release/dacapo-benchmark"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
objdump -d -C --no-show-raw-insn "$binary" | awk -v want="$1" '
    function report() {
        if (name != "")
            printf "%-60s %5d insns  xmm %4d  ymm %4d  zmm %4d  vcvt %3d  vmul %3d  shuf %3d\n",
                name, insns, xmm, ymm, zmm, vcvt, vmul, shuf
    }
    /^[0-9a-f]+ <.*>:$/ {
        report()
        name = ""
        symbol = substr($0, index($0, "<") + 1)
        symbol = substr(symbol, 1, length(symbol) - 2)
        if (index(symbol, want)) {
            name = symbol; found = 1
            insns = xmm = ymm = zmm = vcvt = vmul = shuf = 0
        }
        next
    }
    name != "" && /^ *[0-9a-f]+:\t/ {
        insns++
        if (/%xmm/) xmm++
        if (/%ymm/) ymm++
        if (/%zmm/) zmm++
        if ($2 ~ /^vcvt/) vcvt++
        if ($2 ~ /^vmul/) vmul++
        if ($2 ~ /^(vperm|vunpck|vshuf)/) shuf++
    }
    END {
        report()
        if (!found) { print "no symbol contains \"" want "\"" > "/dev/stderr"; exit 1 }
    }'
