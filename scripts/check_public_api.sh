#!/usr/bin/env bash
# Public-API surface guard.
#
# Regenerates a deterministic listing of every `pub` item declaration and
# every named `pub` struct field in the workspace's library sources and diffs it against the checked-in golden
# (api.txt). CI runs this so any change to the public surface shows up as an
# explicit diff in review; after an intentional API change, refresh the
# golden with:
#
#   ./scripts/check_public_api.sh --bless
#
# The listing is declaration-granular (file + first line of the item), which
# is what a from-source guard can promise: it catches added/removed/renamed
# items and changed first-line signatures, not edits confined to later lines
# of a multi-line signature.
set -euo pipefail
cd "$(dirname "$0")/.."

golden="api.txt"

generate() {
    # Library sources only: bins, examples, tests, and benches are not API.
    find src crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
        # Visible `pub` items and named `pub` struct fields;
        # pub(crate)/pub(super)/pub(in …) are not public.
        grep -HE \
            -e '^[[:space:]]*pub[[:space:]]+(fn|struct|enum|trait|mod|const|static|type|use|unsafe fn)[[:space:]>]' \
            -e '^[[:space:]]*pub[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:' \
            "$f" 2>/dev/null \
            | sed -E 's/[[:space:]]+/ /g; s/ \{.*$//; s/;[[:space:]]*$//' \
            || true
    done
}

if [[ "${1:-}" == "--bless" ]]; then
    generate > "$golden"
    echo "refreshed $golden ($(wc -l < "$golden") public items)"
    exit 0
fi

current="$(mktemp)"
trap 'rm -f "$current"' EXIT
generate > "$current"

if ! diff -u "$golden" "$current"; then
    echo
    echo "public API surface changed: review the diff above and refresh the"
    echo "golden with ./scripts/check_public_api.sh --bless" >&2
    exit 1
fi
echo "public API surface matches $golden ($(wc -l < "$golden") items)"
