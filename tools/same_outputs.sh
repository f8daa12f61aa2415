#!/usr/bin/env bash
# Compare what every command writes and prints at git revision REV against
# the working tree.
#
#   tools/same_outputs.sh REV        e.g. tools/same_outputs.sh HEAD~1
#
# Unpacks `git archive REV` into a temporary directory, generates small CSVs
# (T = 2 and 3, k' = 1 and 2) and fixed-seed scenarios, and runs against
# both src/ trees, from the same relative paths:
#   - estimate, every --method, with and without --dump-units, and fe, tmg
#     and gp with --te;
#   - test, with and without --te, into the --out of an estimate, so that it
#     loads panel.npz;
#   - simulate with all nine tags, with and without time effects, at
#     n = 2 to 1000;
#   - power, with the scenario's grid, the default grid, grid flags, and
#     both at once;
#   - calibrate.
# Each command's stdout and exit code are kept beside its outputs. Then
# manifest.json (it holds timings) and panel.npz (its zip entries hold the
# time of writing) are dropped, and `diff -r` compares the two runs. Exits 0
# when they are the same, 1 on any difference.
set -euo pipefail

rev=${1:?usage: tools/same_outputs.sh REV}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export PYTHONDONTWRITEBYTECODE=1

mkdir -p "$work/rev" "$work/in"
git -C "$repo" archive "$rev" src | tar -x -C "$work/rev"

python3 - "$work/in" <<'EOF'
import json
import sys
from pathlib import Path

import numpy as np

out = Path(sys.argv[1])
rng = np.random.default_rng(20231)
for T in (2, 3):
    for kp in (1, 2):
        n = 40
        x = rng.normal(1.0, 1.0, (n, T, kp))
        x[:4] = x[:4, :1] + 1e-3 * rng.standard_normal((4, T, kp))  # near-stayers
        beta = 1.0 + 0.5 * x.mean(axis=1) + 0.3 * rng.standard_normal((n, kp))
        y = rng.standard_normal((n, 1)) + np.einsum("ntp,np->nt", x, beta)
        y += 0.5 * rng.standard_normal((n, T))
        rows = [
            f"u{i:02d},{t + 1},{float(y[i, t])!r}," + ",".join(repr(float(v)) for v in x[i, t])
            for i in range(n) for t in range(T)
        ]
        rng.shuffle(rows)
        head = "unit_id,time_id,y," + ",".join(f"x{j + 1}" for j in range(kp))
        (out / f"t{T}k{kp}.csv").write_text(head + "\n" + "\n".join(rows) + "\n")

tags = ["fe", "mg", "tmg", "gp", "fete", "tmgte", "gpte", "hausman", "hausman_te"]
base = {"rho_alpha": 0.5, "rho_beta": 0.5, "kappa2": 15.5, "estimators": tags}
for T in (2, 3):
    for te in (False, True):
        for n, reps in ((2, 40), (3, 40), (10, 30), (100, 20), (1000, 6)):
            cell = {**base, "n": n, "T": T, "time_effects": te, "seed": 11, "reps": reps}
            (out / f"sim_t{T}_te{int(te)}_n{n}.json").write_text(json.dumps(cell))
power = {**base, "n": 60, "T": 2, "seed": 5, "reps": 20, "estimators": ["fe", "tmg", "gp"]}
(out / "power.json").write_text(json.dumps(power))
(out / "power_grid.json").write_text(json.dumps({**power, "beta0_grid": [0.5, 1.0, 1.25]}))
cal = {k: v for k, v in power.items() if k != "kappa2"}
(out / "cal.json").write_text(json.dumps(cal))
EOF

run_all() {  # run_all SRC DIR: every command against SRC, outputs under DIR
    local src=$1 dir=$2
    mkdir -p "$dir/stdout"
    cp -r "$work/in" "$dir/in"
    cd "$dir"
    run() {  # run NAME ARGS...: stdout and exit code in stdout/NAME
        local name=$1 rc=0
        shift
        PYTHONPATH="$src" python3 -m tmgpanel.cli "$@" > "stdout/$name" 2> /dev/null || rc=$?
        echo "exit $rc" >> "stdout/$name"
    }
    local csv name method
    for csv in in/t*.csv; do
        name=$(basename "$csv" .csv)
        for method in fe mg tmg gp fete tmgte gpte; do
            run "est_${name}_$method" estimate "$csv" --method "$method" \
                --out "out/est_${name}_$method"
            run "est_${name}_${method}_dump" estimate "$csv" --method "$method" --dump-units \
                --out "out/est_${name}_${method}_dump"
        done
        for method in fe tmg gp; do
            run "est_${name}_${method}_te" estimate "$csv" --method "$method" --te --dump-units \
                --out "out/est_${name}_${method}_te"
        done
        run "test_${name}" test "$csv" --out "out/est_${name}_tmg"
        run "test_${name}_te" test "$csv" --te --out "out/est_${name}_tmgte"
    done
    for scen in in/sim_*.json; do
        name=$(basename "$scen" .json)
        run "$name" simulate "$scen" --out "out/$name"
    done
    run power_default power in/power.json --out out/power_default
    run power_flags power in/power.json --grid-min 0.8 --grid-max 1.4 --grid-points 7 \
        --out out/power_flags
    run power_grid power in/power_grid.json --out out/power_grid
    run power_conflict power in/power_grid.json --grid-points 7 --out out/power_conflict
    run calibrate calibrate in/cal.json --reps 20 --n-cal 200 --out out/calibrate
    find "$dir" \( -name manifest.json -o -name panel.npz \) -delete
}

(run_all "$work/rev/src" "$work/old")
(run_all "$repo/src" "$work/new")
if diff -r "$work/old" "$work/new"; then
    ok=$(cat "$work"/new/stdout/* | grep -c '^exit 0$')
    echo "same outputs and stdout as $rev: $(find "$work/new/out" -type f | wc -l) files," \
        "$(ls "$work/new/stdout" | wc -l) commands, $ok of them exit 0"
else
    echo "outputs or stdout differ from $rev" >&2
    exit 1
fi
