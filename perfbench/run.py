"""Benchmark of tmgpanel: two Monte Carlo cells and a large-CSV CLI session.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mc_t2,mc_te_t3,cli_csv_large} \
        --seed N --seconds S --trace {0,1}

The program runs in child processes (worker.py) with one BLAS thread and
jobs=1; this harness writes the CLI inputs, checks every output against
oracle.py and the paper values, and prints the metrics as the last line of
stdout in JSON. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer table from wrapped calls. See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import CLI_UNITS, CLI_WARMUP_UNITS, MC_CELLS, SETUPS  # noqa: E402

WORKLOADS = (*MC_CELLS, "cli_csv_large")
CHILD_TIMEOUT = 150


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, work, role, index, csv=None):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--role", role, "--index", str(index),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    return cmd + (["--input", str(csv)] if csv else [])


def run_setup_child(args, work, index, csv=None):
    proc = subprocess.run(
        worker_cmd(args, work, "setup", index, csv), env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process {index} failed:\n{proc.stderr}")


def read_result(work, index):
    return json.loads((work / f"result-{index}.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Monte Carlo cells
# ---------------------------------------------------------------------------


def run_mc(args, work):
    main_index = SETUPS - 1
    for k in range(main_index):
        run_setup_child(args, work, k)
    proc = subprocess.run(
        worker_cmd(args, work, "main", main_index), env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measured process failed:\n{proc.stderr}")
    records = [json.loads(line) for line in (work / "blocks.jsonl").read_text().splitlines()]
    repeat = records.pop()
    reps = MC_CELLS[args.workload]["block_reps"]

    # oracle agreement on sampled blocks: the first, and two drawn from the seed
    rng = np.random.default_rng([args.seed, 7])
    drawn = rng.choice(len(records), size=min(2, len(records)), replace=False)
    sampled = sorted({0, *drawn.tolist()})
    for j in sampled:
        checks.check_mc_block(args.workload, args.seed, records[j])
    lines = checks.check_mc_properties(args.workload, records)
    checks.check_mc_repeat(records[0], repeat)
    print(f"checks: oracle agreement on blocks {sampled}; re-run of block 0 identical")
    for line in lines:
        print(f"checks: {line}")
    failures = {}
    for rec in records:
        for res in rec["results"]:
            failures[res["tag"]] = failures.get(res["tag"], 0) + res["failures"]
    print(f"estimates undefined per tag (counted by run_experiment): {failures}")
    dropped = read_result(work, main_index)["dropped_blocks"]
    print(f"blocks dropped for the known negative-determinant fault: {len(dropped)} {dropped}")

    plain = [r["ref"] for r in records if not r["traced"]]
    traced = [r["ref"] for r in records if r["traced"]]
    return {
        "attempted": len(records) * reps,
        "traced_ops": len(traced) * reps,
        "plain_rate": reps / statistics.median(plain) if plain else None,
        "traced_rate": reps / statistics.median(traced) if traced else None,
        "walls": [r["wall"] for r in records],
        "refs": [r["ref"] for r in records],
    }


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------


def run_cli(args, work):
    def fresh_csv(index, n=CLI_UNITS):
        panel = inputs.make_panel(args.seed, index, n)
        path = work / f"panel-{index}.csv"
        rows = inputs.write_csv(path, panel, args.seed, index)
        return path, panel, rows

    main_index = SETUPS - 1
    for k in range(main_index):
        path, _, _ = fresh_csv(k, CLI_WARMUP_UNITS)
        run_setup_child(args, work, k, path)
        path.unlink()
        shutil.rmtree(work / f"out-warm{k}", ignore_errors=True)
    path, _, _ = fresh_csv(main_index, CLI_WARMUP_UNITS)
    proc = subprocess.Popen(
        worker_cmd(args, work, "main", main_index, path), env=child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        if json.loads(proc.stdout.readline() or "{}").get("ready") is not True:
            raise RuntimeError("measured process did not start")
        path.unlink()

        def block(csv, out, cmd="run"):
            proc.stdin.write(f"{cmd} {csv} {out}\n")
            proc.stdin.flush()
            reply = json.loads(proc.stdout.readline())
            if any(reply["codes"]):
                raise checks.CheckFailed(f"commands exited with {reply['codes']}")
            return reply

        plain, traced, timed, j = [], [], 0.0, 0
        first = None
        while timed < args.seconds or j < 2:  # two blocks at least: one traced, one not
            csv, panel, rows = fresh_csv(1000 + j)
            out = work / ("out-first" if j == 0 else "out")
            reply = block(csv, out)
            (traced if reply["traced"] else plain).append(reply)
            timed += sum(reply["walls"])
            if j == 0:
                first = (csv, panel, rows)
                checks.check_round_trip(csv, panel)
                summary = checks.check_cli_outputs(out, panel)
            else:
                csv.unlink()
            j += 1
        block(first[0], work / "out-repeat", cmd="repeat")
        checks.check_cli_repeat(work / "out-first", work / "out-repeat")
        first[0].unlink()
        proc.stdin.write("stop\n")
        proc.stdin.flush()
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited with {proc.returncode}")
    print(f"checks: CSV round trip exact ({first[2]} rows, {CLI_UNITS} units); "
          f"outputs match the oracle: {summary}; re-run of block 0 identical")

    def rate(blocks):
        # per command: the median estimate plus the median test
        if not blocks:
            return None
        return 2.0 / sum(statistics.median(kind) for kind in zip(*(b["refs"] for b in blocks)))

    blocks = plain + traced
    return {
        "attempted": 2 * len(blocks),
        "traced_ops": 2 * len(traced),
        "plain_rate": rate(plain),
        "traced_rate": rate(traced),
        "walls": [sum(b["walls"]) for b in blocks],
        "refs": [sum(b["refs"]) for b in blocks],
        "rows_per_call": first[2],
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("montecarlo.generate_replication.ms_per_op", "ms", "montecarlo.generate_replication", "incl"),
    ("montecarlo.self.ms_per_op", "ms", "montecarlo.run_experiment", "self"),
    ("designs.PanelDesign.calls_per_op", "count", "designs.PanelDesign", "calls"),
    ("designs.PanelDesign.ms_per_op", "ms", "designs.PanelDesign", "incl"),
    ("kernels.gram_det_adj.ms_per_op", "ms", "_kernels.gram_det_adj", "incl"),
    ("kernels.gram_det_adj.bytes_per_op", "B", "_kernels.gram_det_adj", "bytes"),
    ("trimming.compute_threshold.calls_per_op", "count", "trimming.compute_threshold", "calls"),
    ("trimming.ms_per_op", "ms", ("trimming.compute_threshold", "trimming.delta_weights"), "incl"),
    ("estimators.fe.calls_per_op", "count", "estimators.fe", "calls"),
    ("estimators.tmg.calls_per_op", "count", "estimators.tmg", "calls"),
    ("estimators.fe.ms_per_op", "ms", "estimators.fe", "incl"),
    ("estimators.mg.ms_per_op", "ms", "estimators.mg", "incl"),
    ("estimators.tmg.ms_per_op", "ms", "estimators.tmg", "incl"),
    ("estimators.gp.ms_per_op", "ms", "estimators.gp", "incl"),
    ("estimators.gp_threshold.ms_per_op", "ms", "estimators.gp_threshold", "incl"),
    ("timeeffects.chamberlain_projectors.calls_per_op", "count",
     "timeeffects.chamberlain_projectors", "calls"),
    ("timeeffects.tmg_te.calls_per_op", "count", "timeeffects.tmg_te", "calls"),
    ("timeeffects.fete.calls_per_op", "count", "timeeffects.fete", "calls"),
    ("timeeffects.chamberlain_projectors.ms_per_op", "ms",
     "timeeffects.chamberlain_projectors", "incl"),
    ("timeeffects.fete.ms_per_op", "ms", "timeeffects.fete", "incl"),
    ("timeeffects.tmg_te.ms_per_op", "ms", "timeeffects.tmg_te", "incl"),
    ("timeeffects.gp_te.ms_per_op", "ms", "timeeffects.gp_te", "incl"),
    ("hausman.hausman_no_te.ms_per_op", "ms", "hausman.hausman_no_te", "incl"),
    ("hausman.hausman_te.ms_per_op", "ms", "hausman.hausman_te", "incl"),
    ("panel.read_panel_csv.ms_per_op", "ms", "panel.read_panel_csv", "incl"),
    ("panel.rows_per_s", "rows/s", "panel.read_panel_csv", "rows_per_s"),
    ("cli.self.ms_per_op", "ms", "cli.main", "self"),
)


def per_layer_metrics(trace, ops, rows_per_call):
    out = {}
    for name, unit, spans, kind in PER_LAYER:
        spans = spans if isinstance(spans, tuple) else (spans,)
        recs = [trace.get(s, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "bytes": 0}) for s in spans]
        if kind == "calls":
            value = sum(r["calls"] for r in recs) / ops
        elif kind == "bytes":
            value = sum(r["bytes"] for r in recs) / ops
        elif kind == "rows_per_s":
            busy = sum(r["incl_s"] for r in recs)
            value = sum(r["calls"] for r in recs) * rows_per_call / busy if busy else 0.0
        else:
            value = 1e3 * sum(r[f"{kind}_s"] for r in recs) / ops
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tmgpanel" / "__init__.py").is_file():
        print(f"error: no tmgpanel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload in MC_CELLS:
            run = run_mc(args, work)
        else:
            run = run_cli(args, work)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    setups = [read_result(work, k) for k in range(SETUPS)]
    main_result = setups[-1]
    env = main_result["env"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for label, times in (("wall", run["walls"]), ("reference", run["refs"])):
        times = sorted(times)
        print(
            f"blocks in {label} seconds: {len(times)}, fastest {times[0]:.4f}, median "
            f"{statistics.median(times):.4f}, slowest {times[-1]:.4f}"
        )
    print(
        "set-up per process, wall / reference seconds: "
        + ", ".join(f"{s['setup_wall_s']:.3f} / {s['setup_s']:.3f}" for s in setups)
    )
    if args.trace:
        metrics = per_layer_metrics(main_result["trace"], run["traced_ops"], run.get("rows_per_call", 0))
        overhead = 100.0 * (run["plain_rate"] / run["traced_rate"] - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        shutil.copy(work / "trace.jsonl", HERE / ".work" / f"trace-{args.workload}.jsonl")
    else:
        metrics = {
            "ops_per_s": {"value": run["plain_rate"], "unit": "op/s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": main_result["peak_rss_mb"], "unit": "MiB"},
        }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": run["attempted"], "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
