#!/usr/bin/env bash
# Non-test lines of Rust per crate, over `crates/*/src/**/*.rs` minus the
# items gated by `#[cfg(test)]` (unit-test modules and test-only helpers).
# Prints a markdown table: code lines (non-blank, not comment-only) and
# comment lines (`//`, `///`, `//!`, doc examples included).
#
#   scripts/loc.sh            # all crates
#   scripts/loc.sh cli bench  # just these crates, plus their sum
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "code comments" for the lines outside `#[cfg(test)]` items. An
# item ends where its braces balance again, or at a `;` on a brace-free
# item (`use`).
count() {
    awk '
        FNR == 1 { skip = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            line = $0
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
            depth += opens - closes
            if (opens > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        /^[[:space:]]*\/\// { comments++; next }
        NF { code++ }
        END { print code + 0, comments + 0 }
    ' "$@"
}

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/; do
        crates+=("$(basename "$dir")")
    done
fi

echo "| crate | files | code | comments |"
echo "|---|---:|---:|---:|"
total_code=0
total_comments=0
for crate in "${crates[@]}"; do
    mapfile -t files < <(find "crates/$crate/src" -name '*.rs' | sort)
    read -r code comments < <(count "${files[@]}")
    total_code=$((total_code + code))
    total_comments=$((total_comments + comments))
    echo "| $crate | ${#files[@]} | $code | $comments |"
done
echo "| **total** | | **$total_code** | **$total_comments** |"
