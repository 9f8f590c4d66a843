#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, as a markdown table.
#
#   .github/scripts/loc.sh [repo-root]
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (every crate here keeps its unit tests in one trailing module); a file
# without one counts whole. Prints one row per file, one total per crate
# and a grand total. Simplicity PRs quote this table from both commits
# ("Lines (non-test, parent -> change)" in CHANGES.md), and CI appends it
# to the step summary — the head's table, and its diff against the merge
# base's by the two lines below — so the counts are anyone's to reproduce:
#
#   git archive <parent> | tar -x -C /tmp/parent
#   diff <(.github/scripts/loc.sh /tmp/parent) <(.github/scripts/loc.sh)
set -euo pipefail
cd "${1:-.}"

echo "| file | non-test lines |"
echo "|---|---|"
grand=0
for crate in crates/*/; do
  [ -d "${crate}src" ] || continue
  total=0
  while IFS= read -r file; do
    lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    echo "| $file | $lines |"
    total=$((total + lines))
  done < <(find "${crate}src" -name '*.rs' | LC_ALL=C sort)
  echo "| **${crate%/} total** | **$total** |"
  grand=$((grand + total))
done
echo "| **all crates** | **$grand** |"
