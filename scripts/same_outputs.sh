#!/usr/bin/env bash
# Check that the working tree writes the same study outputs as commit REF.
#
# Usage: scripts/same_outputs.sh REF
#
# Runs every CLI study at a fixed seed (darcy also with block moves off, the
# kernel of scripts/paper_scale_configs/darcy_full.json), once on a temporary
# copy of REF (extracted with git archive, so nothing under .git changes) and
# once on the working tree, then compares each output file except
# timings.json byte for byte.  Prints the number of identical files and each
# file that differs or exists on one side only.  Exit status: 0 when every
# file is identical, 1 on any difference, 2 when a run fails.  Set TMPDIR to
# choose where the copy and the outputs go; both are removed on exit.
set -euo pipefail

ref=${1:?usage: scripts/same_outputs.sh REF}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
printf '{"n_chains": 2}\n' > "$tmp/two_chains.json"
printf '{"block_steps": 0, "c_steps": 100}\n' > "$tmp/centred.json"

# output directory | subcommand and options
runs=(
    "darcy|darcy --seed 7 --samples 300 --burn-in 100"
    "darcy-2chains|darcy --seed 7 --samples 200 --burn-in 50 --config $tmp/two_chains.json"
    "darcy-centred|darcy --seed 7 --samples 200 --burn-in 50 --config $tmp/centred.json"
    "monod|monod --seed 7 --samples 3000 --burn-in 1000"
    "cokrige|cokrige --seed 7 --samples 600 --burn-in 100"
    "cokrige-2chains|cokrige --seed 7 --samples 400 --burn-in 100 --config $tmp/two_chains.json"
    "sample-prior|sample-prior --seed 7"
    "factor-compare|factor-compare --seed 7"
    "verify|verify --seed 7"
)

run_studies() {  # source tree, output directory
    local src=$1/src out=$2 run name
    mkdir -p "$out"
    for run in "${runs[@]}"; do
        name=${run%%|*}
        echo "$(basename "$out"): $name" >&2
        # shellcheck disable=SC2086  # the options are split on purpose
        if ! (cd "$out" && PYTHONPATH="$src" PYTHONDONTWRITEBYTECODE=1 \
                python3 -m jointprior.cli ${run#*|} --out "$name" >/dev/null); then
            echo "run failed: $name in $1" >&2
            exit 2
        fi
    done
}

run_studies "$tmp/ref" "$tmp/out-ref"
run_studies "$root" "$tmp/out-new"

same=0
differ=0
while IFS= read -r file; do
    if cmp -s "$tmp/out-ref/$file" "$tmp/out-new/$file"; then
        same=$((same + 1))
    else
        differ=$((differ + 1))
        echo "differs: $file"
    fi
done < <(cd "$tmp" && find out-ref out-new -type f ! -name timings.json \
             | cut -d/ -f2- | sort -u)

echo "$same identical, $differ different (timings.json not compared)"
[ "$differ" -eq 0 ]
