#!/usr/bin/env bash
# Prints the non-test line count of each named crate: for every Rust file
# under the crate's src/, the lines before its first `#[cfg(test)]` line
# (the whole file when it has none). Name a crate by package (`stp-sim`)
# or by its directory under crates/ (`sim`).
#
#   scripts/nontest_lines.sh stp-sim stp-core stp-channel
#
# To compare with another commit, run the same script in a checkout of it
# (e.g. `git archive <rev> | tar -x -C <dir>`).
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <crate>..." >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
for crate in "$@"; do
    src="$root/crates/${crate#stp-}/src"
    if [ ! -d "$src" ]; then
        echo "$0: no crate $crate (looked for $src)" >&2
        exit 2
    fi
    total=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        total=$((total + n))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%s\t%d\n' "$crate" "$total"
done
