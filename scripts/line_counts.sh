#!/bin/sh
# Prints the two line counts ROADMAP.md tracks from PR to PR:
#   total    every `*.rs` line under crates/ and tests/;
#   program  each crates/*/src `*.rs` file up to its first top-level
#            `#[cfg(test)]` (the non-test program lines).
# Run from anywhere: sh scripts/line_counts.sh
set -eu
cd "$(dirname "$0")/.."

total=$(find crates tests -name '*.rs' -exec cat {} + | wc -l)
program=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }
' {} + | awk '{ s += $1 } END { print s }')
echo "total / program lines: $total / $program"
