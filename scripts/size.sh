#!/usr/bin/env bash
# Size report, per crate under crates/: code-bearing non-test lines of
# src/ (blank lines, comment-only lines and `#[cfg(test)]` modules are not
# counted) and the public surface (`pub fn`, `pub const`, `pub struct`,
# `pub trait` declarations outside test modules). Report only — nothing
# gates on it; simplicity PRs quote its before/after.
#
#   scripts/size.sh [repo-root]
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"

printf '%-12s %8s %7s %9s %10s %9s\n' crate code 'pub fn' 'pub const' 'pub struct' 'pub trait'
for dir in "$root"/crates/*/; do
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
        END { printf "%-12s %8d %7d %9d %10d %9d\n", crate, code, fns, consts, structs, traits }
    '
done
