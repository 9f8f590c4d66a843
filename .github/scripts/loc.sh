#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, as a markdown table.
#
#   .github/scripts/loc.sh [repo-root]
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (every crate here keeps its unit tests in one trailing module); a file
# without one counts whole. A file its parent module declares as
# `#[cfg(test)] mod <name>;` is test-only and counts 0. Prints one row
# per file, one total per crate, the subtotal of crates/query,
# crates/bgp-types and crates/bench (the three crates ROADMAP item 10's
# deletion target counts) and a grand total. Simplicity PRs quote
# this table from both commits ("Lines (non-test, parent -> change)" in
# CHANGES.md), and CI appends it to the step summary — the head's table,
# and its diff against the merge base's by the two lines below — so the
# counts are anyone's to reproduce:
#
#   git archive <parent> | tar -x -C /tmp/parent
#   diff <(.github/scripts/loc.sh /tmp/parent) <(.github/scripts/loc.sh)
set -euo pipefail
cd "${1:-.}"

# Succeeds when the module source `$1` is declared `#[cfg(test)]` by its
# parent: `src/a/b.rs` and `src/a/b/mod.rs` by `src/a.rs` or
# `src/a/mod.rs`, `src/b.rs` by `src/lib.rs` or `src/main.rs`.
test_only() {
  local file=$1 dir name parents
  case $file in */src/lib.rs | */src/main.rs | */src/bin/*) return 1 ;; esac
  if [ "$(basename "$file")" = mod.rs ]; then
    dir=$(dirname "$(dirname "$file")") name=$(basename "$(dirname "$file")")
  else
    dir=$(dirname "$file") name=$(basename "$file" .rs)
  fi
  case $dir in
    */src) parents="$dir/lib.rs $dir/main.rs" ;;
    *) parents="$dir.rs $dir/mod.rs" ;;
  esac
  for parent in $parents; do
    [ -f "$parent" ] || continue
    awk -v name="$name" '
      $0 ~ "(^|[[:space:]])mod[[:space:]]+" name "[[:space:]]*;" &&
        (prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ || /#\[cfg\(test\)\]/) { found = 1; exit }
      !/^[[:space:]]*$/ { prev = $0 }
      END { exit !found }' "$parent" && return 0
  done
  return 1
}

echo "| file | non-test lines |"
echo "|---|---|"
grand=0 item10=0
for crate in crates/*/; do
  [ -d "${crate}src" ] || continue
  total=0
  while IFS= read -r file; do
    if test_only "$file"; then
      lines=0
    else
      lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    fi
    echo "| $file | $lines |"
    total=$((total + lines))
  done < <(find "${crate}src" -name '*.rs' | LC_ALL=C sort)
  echo "| **${crate%/} total** | **$total** |"
  grand=$((grand + total))
  case ${crate%/} in crates/query | crates/bgp-types | crates/bench) item10=$((item10 + total)) ;; esac
done
echo "| **query + bgp-types + bench** | **$item10** |"
echo "| **all crates** | **$grand** |"
