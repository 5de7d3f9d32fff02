#!/usr/bin/env bash
# Non-test Rust line counts per crate: the "net lines removed" number a
# simplicity change reports.
#
# Counts every `.rs` file under each crate's `src/` (`crates/<name>/src`;
# the dependency shims under `crates/shims/*/src` as one `shims` row), each
# file cut at its `#[cfg(test)]` line when the next line opens `mod tests`.
# Blank lines are skipped; a line whose first non-blank characters are `//`
# is a comment, every other line is code. Prints one row per crate and a
# total row.
#
# With --base <rev>, the same counts are also taken for <rev>, read
# through `git archive` (nothing is built), and each row gains the
# revision's counts and the working tree's delta against them. A crate
# present on one side only counts 0 on the other.
#
# Usage:
#   scripts/loc.sh [--base <rev>]
#
#   --base   revision to compare against, e.g. HEAD~1. `--base HEAD` on a
#            clean checkout is an A/A run: every delta is 0.
set -euo pipefail
cd "$(dirname "$0")/.."
# One collation for `ls`, `sort` and `join`.
export LC_ALL=C

base=""
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base="$2"; shift 2 ;;
    *) echo "usage: $0 [--base <rev>]" >&2; exit 2 ;;
  esac
done

# count_tree <dir>: one `crate code comments` line per crate of the
# checkout rooted at <dir>. Called in a command substitution, so its `cd`
# stays local.
count_tree() {
  local crate files
  cd "$1/crates"
  for crate in $(ls -d */ | tr -d /); do
    if [ "$crate" = shims ]; then
      files="$(for src in shims/*/src; do find "$src" -name '*.rs'; done | sort)"
    else
      files="$(find "$crate/src" -name '*.rs' 2>/dev/null | sort)"
    fi
    # An empty file list still has to print a row, so awk reads no file
    # rather than stdin when there is nothing to count.
    # shellcheck disable=SC2086
    printf '%s %s\n' "$crate" "$(awk '
      FNR == 1 { if (held) code++; held = 0; cut = 0 }
      cut { next }
      {
        t = $0
        sub(/^[ \t]+/, "", t)
        sub(/[ \t\r]+$/, "", t)
        # A held `#[cfg(test)]` is code unless this line opens `mod tests`.
        if (held) {
          held = 0
          if (t ~ /^mod tests/) { cut = 1; next }
          code++
        }
        if (t == "#[cfg(test)]") { held = 1; next }
        if (t == "") next
        if (t ~ /^\/\//) comments++; else code++
      }
      END { if (held) code++; print code + 0, comments + 0 }
    ' ${files:-/dev/null})"
  done
}

tree_counts="$(count_tree .)"
if [ -z "$base" ]; then
  printf '%-10s %8s %9s\n' crate code comments
  awk '{ printf "%-10s %8d %9d\n", $1, $2, $3; c += $2; k += $3 }
       END { printf "%-10s %8d %9d\n", "total", c, k }' <<<"$tree_counts"
  exit 0
fi

rev="$(git rev-parse --verify "$base^{commit}")"
snap="$(mktemp -d)"
trap 'rm -rf "$snap"' EXIT
git archive "$rev" crates | tar -x -C "$snap"
base_counts="$(count_tree "$snap")"

printf 'working tree against base %s (delta = tree - base)\n' "${rev:0:12}"
printf '%-10s %10s %10s %10s %10s %8s %8s\n' \
  crate "base code" "base cmts" "code" "comments" "d code" "d cmts"
join -a 1 -a 2 -e 0 -o 0,1.2,1.3,2.2,2.3 <(sort <<<"$base_counts") <(sort <<<"$tree_counts") \
  | awk '
      function row(c, b1, b2, t1, t2) {
        printf "%-10s %10d %10d %10d %10d %+8d %+8d\n", c, b1, b2, t1, t2, t1 - b1, t2 - b2
      }
      { row($1, $2, $3, $4, $5); b1 += $2; b2 += $3; t1 += $4; t2 += $5 }
      END { row("total", b1, b2, t1, t2) }
    '
