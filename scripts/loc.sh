#!/bin/sh
# Non-test Rust lines under crates/*/src: each file counts up to its
# first column-0 `#[cfg(test)]`, so in-file unit tests stay out, and
# integration tests live outside src/.
#
#   scripts/loc.sh              lines per crate, then the workspace total
#   scripts/loc.sh FILE.rs...   lines per named file, then their total
set -eu

cd "$(dirname "$0")/.."

# Prints "<lines> <file>" for each file argument.
count() {
    for f in "$@"; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
    done
}

if [ $# -gt 0 ]; then
    count "$@" | awk '{ print; total += $1 } END { print total, "total" }'
    exit 0
fi
for dir in crates/*/src; do
    # shellcheck disable=SC2046
    count $(find "$dir" -name '*.rs' | sort) \
        | awk -v d="$dir" '{ n += $1 } END { print n, d }'
done | awk '{ print; total += $1 } END { print total, "total" }'
