#!/usr/bin/env bash
# mutants: every planted defect under testdata/mutants/ must still be
# caught by the check that caught it the day it was planted. Each
# NN-name.patch starts with a header, then a git diff:
#
#   Mutant: what the defect is
#   Command: the command that must fail on it (run from the tree root)
#   Expect: an extended regexp the command's output must match
#
# For each patch, HEAD is exported with git archive into a fresh temporary
# directory, the patch is applied there, and the command is run. The run
# fails if a patch no longer applies, if a command passes (the mutant
# survived), or if it fails without printing its Expect line, so that a
# build break does not count as a kill. Uncommitted changes are not seen.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

total=0
bad=0
for patch in "$root"/testdata/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    cmd=$(sed -n 's/^Command: //p' "$patch" | head -n 1)
    expect=$(sed -n 's/^Expect: //p' "$patch" | head -n 1)
    total=$((total + 1))
    if [ -z "$cmd" ] || [ -z "$expect" ]; then
        echo "mutants: $name: header lacks a Command: or Expect: line"
        bad=$((bad + 1))
        continue
    fi
    dir="$work/$name"
    mkdir -p "$dir"
    git -C "$root" archive HEAD | tar -x -C "$dir"
    if ! (cd "$dir" && git apply "$patch") >"$work/$name.log" 2>&1; then
        echo "mutants: $name: patch no longer applies"
        cat "$work/$name.log"
        bad=$((bad + 1))
        continue
    fi
    if (cd "$dir" && bash -c "$cmd") >"$work/$name.log" 2>&1; then
        echo "mutants: $name: SURVIVED ($cmd passed)"
        bad=$((bad + 1))
    elif grep -Eq -- "$expect" "$work/$name.log"; then
        echo "mutants: $name: killed"
    else
        echo "mutants: $name: failed without matching /$expect/; last lines:"
        tail -n 20 "$work/$name.log"
        bad=$((bad + 1))
    fi
    rm -rf "$dir"
done
if [ "$total" -eq 0 ]; then
    echo "mutants: no patches under testdata/mutants/"
    exit 1
fi
echo "mutants: $((total - bad)) of $total killed"
[ "$bad" -eq 0 ]
