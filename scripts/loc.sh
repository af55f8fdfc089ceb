#!/usr/bin/env bash
# Per-crate non-test code-line counts, as used in CHANGES.md tables: over
# every .rs file under src/ and benches/, the lines above the file's
# top-level `#[cfg(test)]` that are neither blank nor a `//` comment. With
# file arguments, one count per file instead of the per-crate table (which
# ends in a `total` row). Run it in a clone of the parent commit for the
# "before" column.
set -euo pipefail
count() {
    xargs -0 awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { printf "%6d  ", n }'
}
cd "$(dirname "$0")/.."
if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        printf '%s\0' "$file" | count
        echo "$file"
    done
    exit
fi
total=0
for crate in crates/* shims; do
    n=$(find "$crate" -name '*.rs' \( -path '*/src/*' -o -path '*/benches/*' \) -print0 | count)
    echo "$n$crate"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
