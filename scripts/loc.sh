#!/usr/bin/env bash
# Rust line counts, split into non-test and test code.
# Usage: scripts/loc.sh [rev]
#   Prints the counts for the working tree, and with a git revision also for
#   that revision and the difference (working tree minus rev).
# Counted: every *.rs file under crates/, src/, tests/ and examples/ (perfbench/
# is a separate benchmark package and is left out). Physical lines, blanks
# included. Test code is any file under a tests/ directory plus every item
# marked #[cfg(test)] (its attribute line through its closing brace).
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "non-test test" line counts for the files named.
count() {
  awk '
    FNR == 1 { in_test = 0; test_file = (FILENAME ~ /(^|\/)tests\//) }
    test_file { test++; next }
    in_test {
      test++
      # The item ends at the brace closing it, or at once if it is one line.
      if ($0 == close_line || (first && $0 ~ /;[ \t]*$/ && $0 !~ /\{/)) { in_test = 0 }
      first = 0
      next
    }
    /^[ \t]*#\[cfg\(test\)\]/ {
      in_test = 1
      first = 1
      match($0, /^[ \t]*/)
      close_line = substr($0, 1, RLENGTH) "}"
      test++
      next
    }
    { code++ }
    END { printf "%d %d\n", code, test }
  ' "$@"
}

tree_counts() {
  local files
  mapfile -t files < <(git ls-files --cached --others --exclude-standard -- \
    'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' | while read -r f; do
      [[ -f "$f" ]] && echo "$f"
    done)
  count "${files[@]}"
}

rev_counts() {
  local dir
  dir="$(mktemp -d)"
  trap 'rm -rf "$dir"' RETURN
  git archive "$1" -- crates src tests examples | tar -x -C "$dir"
  (cd "$dir" && count $(find crates src tests examples -name '*.rs' 2>/dev/null | sort))
}

read -r now_code now_test < <(tree_counts)
printf '%-14s non-test %6d  test %6d  total %6d\n' "working tree" \
  "$now_code" "$now_test" $((now_code + now_test))
if [[ $# -ge 1 ]]; then
  read -r old_code old_test < <(rev_counts "$1")
  printf '%-14s non-test %6d  test %6d  total %6d\n' "$1" \
    "$old_code" "$old_test" $((old_code + old_test))
  printf '%-14s non-test %+6d  test %+6d  total %+6d\n' "difference" \
    $((now_code - old_code)) $((now_test - old_test)) \
    $((now_code + now_test - old_code - old_test))
fi
