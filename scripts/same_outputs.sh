#!/usr/bin/env bash
# Check that the working tree writes the same study outputs as commit REF.
#
# Usage: scripts/same_outputs.sh REF
#
# Runs every CLI study at a fixed seed (darcy also with its centred kernel,
# one pCN field step and 100 centred correlation steps per iteration, the
# kernel of scripts/paper_scale_configs/darcy_full.json, and cokrige also
# with a retained chain longer than one summary batch),
# once on a temporary copy of REF (extracted with git archive, so nothing
# under .git changes) and once on the working tree, with one BLAS thread (the
# rounding of some outputs depends on the thread count), then compares each
# output file except timings.json byte for byte.  Prints the number of
# identical files and each file that differs or exists on one side only.
# Beside a CSV or JSON file that differs it prints the largest absolute and
# relative difference of its numbers (relative to the larger magnitude of
# each pair; a JSON file's numbers are paired path by path), and for a JSON
# file the first three paths whose strings or structure differ, such as
# checks[0].detail or a list's length (outputs (length 4 against 14)).  For
# a CSV file it then prints the same two gaps per column, named by the header
# row (by position when there is none), and lists the columns that read 0 gap
# apart.  Exit status: 0 when every file is identical, 1 on any difference, 2
# when a run fails.  Set TMPDIR to choose where the copy and the outputs go;
# both are removed on exit.
set -euo pipefail
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

ref=${1:?usage: scripts/same_outputs.sh REF}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
printf '{"n_chains": 2}\n' > "$tmp/two_chains.json"
printf '{"c_steps": 100}\n' > "$tmp/centred.json"  # the centred kernel

# output directory | subcommand and options
runs=(
    "darcy|darcy --seed 7 --samples 300 --burn-in 100"
    "darcy-2chains|darcy --seed 7 --samples 200 --burn-in 50 --config $tmp/two_chains.json"
    "darcy-centred|darcy --seed 7 --samples 200 --burn-in 50 --config $tmp/centred.json"
    "monod|monod --seed 7 --samples 3000 --burn-in 1000"
    "cokrige|cokrige --seed 7 --samples 600 --burn-in 100"
    "cokrige-2chains|cokrige --seed 7 --samples 400 --burn-in 100 --config $tmp/two_chains.json"
    "cokrige-long|cokrige --seed 7 --samples 4600 --burn-in 100"  # spans 3 summary batches
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

file_gap() {  # largest gaps between two CSV or JSON files' numbers
    python3 - "$1" "$2" <<'PY'
import json
import math
import sys


def csv_columns(path):
    """(column names, rows of numbers); a header row of names is the first
    line whose tokens are not all numbers and that is no # comment."""
    names, rows = None, []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            tokens = line.strip().split(",")
            try:
                rows.append([float(t) for t in tokens])
            except ValueError:  # header text
                names = names or tokens
    width = max(map(len, rows), default=0)
    return names or [f"column {j}" for j in range(width)], rows


def gaps(pairs):
    """Largest absolute and relative gap of (x, y) number pairs."""
    gap_abs = gap_rel = 0.0
    for x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if math.isnan(x) or math.isnan(y):
            return math.inf, math.inf
        gap = abs(x - y)
        gap_abs = max(gap_abs, gap)
        gap_rel = max(gap_rel, gap / max(abs(x), abs(y)))
    return gap_abs, gap_rel


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def walk(a, b, path, pairs, differ):
    """Collect the number pairs at equal paths of two parsed JSON values, and
    the paths whose strings or structure differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            differ.append(f"{path or '.'} (keys {sorted(a.keys() ^ b.keys())} on one side)")
        for key in a:
            if key in b:
                walk(a[key], b[key], f"{path}.{key}" if path else key, pairs, differ)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            differ.append(f"{path} (length {len(a)} against {len(b)})")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]", pairs, differ)
    elif is_number(a) and is_number(b):
        pairs.append((a, b))
    elif a != b:
        differ.append(path or ".")


ref, new = sys.argv[1], sys.argv[2]
differ, columns = [], []
if ref.endswith(".json"):
    pairs = []
    with open(ref) as fa, open(new) as fb:
        walk(json.load(fa), json.load(fb), "", pairs, differ)
else:
    (names, a), (_, b) = csv_columns(ref), csv_columns(new)
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        print(f"{sum(map(len, a))} against {sum(map(len, b))} numbers")
        sys.exit()
    pairs = [p for x, y in zip(a, b) for p in zip(x, y)]
    columns = [(name, gaps([(x[j], y[j]) for x, y in zip(a, b) if j < len(x)]))
               for j, name in enumerate(names)]
text = "max abs {:.3g}, max rel {:.3g}".format(*gaps(pairs))
if differ:
    text += "; differs at " + ", ".join(differ[:3])
if columns:
    same = [name for name, (gap_abs, _) in columns if gap_abs == 0.0]
    moved = [f"{name} {gap_abs:.3g}/{gap_rel:.3g}" for name, (gap_abs, gap_rel) in columns
             if gap_abs != 0.0]
    text += "\n    columns, max abs/rel: " + (", ".join(moved) or "none")
    text += "\n    columns at 0 gap: " + (", ".join(same) or "none")
print(text)
PY
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
        if [[ ($file == *.csv || $file == *.json) && -f $tmp/out-ref/$file
              && -f $tmp/out-new/$file ]]; then
            echo "differs: $file: $(file_gap "$tmp/out-ref/$file" "$tmp/out-new/$file")"
        else
            echo "differs: $file"
        fi
    fi
done < <(cd "$tmp" && find out-ref out-new -type f ! -name timings.json \
             | cut -d/ -f2- | sort -u)

echo "$same identical, $differ different (timings.json not compared)"
[ "$differ" -eq 0 ]
