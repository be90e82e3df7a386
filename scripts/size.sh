#!/usr/bin/env bash
# Size report, per crate under crates/: code-bearing non-test lines of
# src/ (blank lines, comment-only lines and `#[cfg(test)]` modules are not
# counted) and the public surface (`pub fn`, `pub const`, `pub struct`,
# `pub trait` declarations outside test modules). Report only — nothing
# gates on it; simplicity PRs quote its before/after.
#
#   scripts/size.sh [repo-root]          the report for one tree
#   scripts/size.sh --diff <git-ref>     this tree's numbers, each followed by
#                                        its change since <git-ref> in brackets
set -euo pipefail

# One "crate code fns consts structs traits" line per crate of tree $1.
measure() {
    for dir in "$1"/crates/*/; do
        [ -d "$dir/src" ] || continue
        find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="$(basename "$dir")" '
            FNR == 1 { in_tests = 0; pending = 0 }
            # A `#[cfg(test)]` attribute followed by `mod … {` opens a test
            # module; it runs to the next closing brace in column 0.
            in_tests { if ($0 ~ /^}/) in_tests = 0; next }
            /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
            pending && /^[[:space:]]*(pub )?mod [a-z_]+ \{/ { pending = 0; in_tests = 1; next }
            { pending = 0 }
            /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { code++ }
            /^[[:space:]]*pub (const )?fn /  { fns++ }
            /^[[:space:]]*pub const [A-Z_]/  { consts++ }
            /^[[:space:]]*pub struct /       { structs++ }
            /^[[:space:]]*pub trait /        { traits++ }
            END { printf "%s %d %d %d %d %d\n", crate, code, fns, consts, structs, traits }
        '
    done
}

here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [ "${1:-}" = "--diff" ]; then
    ref="${2:?usage: scripts/size.sh --diff <git-ref>}"
    base="$(mktemp -d)"
    trap 'rm -rf "$base"' EXIT
    git -C "$here" archive "$ref" crates | tar -x -C "$base"
    printf '%-12s %14s %12s %12s %12s %12s\n' crate code 'pub fn' 'pub const' 'pub struct' 'pub trait'
    # Base rows first, so every row of this tree finds its base (a crate
    # new since <git-ref> diffs against zero).
    { measure "$base" | sed 's/^/base /'; measure "$here" | sed 's/^/head /'; } | awk '
        $1 == "base" { for (i = 3; i <= 7; i++) was[$2, i] = $i; next }
        {
            printf "%-12s", $2
            for (i = 3; i <= 7; i++)
                printf " %*s", (i == 3 ? 14 : 12), sprintf("%d (%+d)", $i, $i - was[$2, i])
            printf "\n"
        }
    '
else
    printf '%-12s %8s %7s %9s %10s %9s\n' crate code 'pub fn' 'pub const' 'pub struct' 'pub trait'
    measure "${1:-$here}" | awk '{ printf "%-12s %8d %7d %9d %10d %9d\n", $1, $2, $3, $4, $5, $6 }'
fi
