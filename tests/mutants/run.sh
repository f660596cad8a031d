#!/usr/bin/env bash
# Applies each committed mutant to a temporary worktree of HEAD and runs the
# command its manifest row names.
#
#   tests/mutants/run.sh            # every row of tests/mutants/manifest
#   tests/mutants/run.sh NAME...    # only the rows whose patch is NAME.patch
#
# A manifest row is `patch | command | expectation` (no field contains a
# `|`; blank lines and lines starting with `#` are skipped). The
# expectation is either `kills <test>: <message fragment>` (the first ": "
# ends the test's path) — the command must fail and its output must name
# the test and contain the fragment — or `survives: <why>`, which is run
# and reported but not required to fail.
# The job fails when a patch changes more than 5 lines or no longer
# applies, and when a mutant expected to be killed survives (or fails for
# another reason than the one its row names).
#
# The worktree is made under ${TMPDIR:-/tmp} at one fixed path and reset
# between mutants, and every build goes to one CARGO_TARGET_DIR (default:
# target/mutants in the repository), so a mutant rebuilds only what its
# patch touches.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
here="$repo/tests/mutants"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target/mutants}"
work="$(mktemp -d)/mutant"
git -C "$repo" worktree add --detach --quiet "$work" HEAD
trap 'git -C "$repo" worktree remove --force "$work"; rmdir "$(dirname "$work")"' EXIT

trim() { sed -e 's/^[[:space:]]*//' -e 's/[[:space:]]*$//' <<<"$1"; }

failures=0
while IFS='|' read -r patch command expect; do
    patch=$(trim "$patch")
    case "$patch" in '' | '#'*) continue ;; esac
    command=$(trim "$command")
    expect=$(trim "$expect")
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qx "${patch%.patch}"; then
        continue
    fi
    echo "== $patch"
    changed=$(grep -vE '^(\+\+\+|---) ' "$here/$patch" | grep -cE '^[-+]' || true)
    if [ "$changed" -gt 5 ]; then
        echo "FAIL $patch changes $changed lines (at most 5)"
        failures=$((failures + 1))
        continue
    fi
    git -C "$work" checkout --quiet --force HEAD
    git -C "$work" clean -fdq
    if ! git -C "$work" apply "$here/$patch"; then
        echo "FAIL $patch no longer applies"
        failures=$((failures + 1))
        continue
    fi
    status=0
    output=$(cd "$work" && bash -c "$command" 2>&1) || status=$?
    case "$expect" in
    survives:*)
        echo "ok   survives as expected (exit $status): ${expect#survives:}"
        ;;
    kills\ *)
        spec=${expect#kills }
        test_name=${spec%%: *}
        fragment=${spec#*: }
        if [ "$status" -eq 0 ]; then
            echo "FAIL $patch survives: \`$command\` passed"
            failures=$((failures + 1))
        elif ! grep -qF -- "$test_name" <<<"$output" || ! grep -qF -- "$fragment" <<<"$output"; then
            echo "FAIL $patch failed, but not in $test_name with \"$fragment\":"
            tail -n 40 <<<"$output"
            failures=$((failures + 1))
        else
            echo "ok   killed by $test_name"
        fi
        ;;
    *)
        echo "FAIL $patch: expectation must start with 'kills ' or 'survives:'"
        failures=$((failures + 1))
        ;;
    esac
done <"$here/manifest"

if [ "$failures" -gt 0 ]; then
    echo "$failures mutant row(s) failed"
    exit 1
fi
echo "every mutant behaved as its row says"
