"""Benchmark of the MAC trainer: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a macqp checkout; the package is imported from its
``src/``.  Each repetition trains the workload once through
``macqp.harness.run_experiment`` in a fresh process (``rep.py``); a new
repetition starts while it is expected to end within ``--seconds``.
With ``--trace 0`` the training times are sums over the training steps of
each step's fastest repetition (see ``_composed``), and the other
end-to-end metrics are medians over the repetitions; with ``--trace 1``
untraced and traced repetitions alternate, and the per-layer metrics are
the medians over the traced ones.  Every metric named in BENCHMARK.json is
printed by name with the unit given there; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, where
attempted/failed count correctness checks.
``--smoke`` runs a tiny version of the workload, for the benchmark's own
tests.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP_TIMEOUT_S = 150.0
DEADLINE_S = 170.0


def _units(section):
    """Metric name -> unit, for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _rep(workload, seed, traced, smoke, timeout):
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--traced"] * traced + ["--smoke"] * smoke
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(spawn)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"repetition exited {proc.returncode} without a result"}
    if "error" in out:
        sys.stderr.write(proc.stderr)
    return out


def _median(values):
    return statistics.median(values) if values else None


def _composed(plain):
    """Training times composed from each step's fastest repetition, or None
    if the repetitions did not take the same steps.

    The trace gives the seconds at the end of every W-step, Z-step,
    selection and stage row; the runs of a workload are deterministic, so
    every repetition takes the same steps.  Each step's duration is its
    minimum over the repetitions, and a time is the sum over its steps.
    Other tenants of a shared machine slow each CPU in phases of about a
    second, and only ever add time; a step's minimum is what it costs when
    no such phase covered it in some repetition, so a run's figure depends
    much less on how many slow phases fell into it than a median over
    whole repetitions does (README, finding 6).
    """
    steps = [r["steps"] for r in plain]
    first = steps[0]
    if any((len(s["seconds"]), s["i_e1"], s["i_viol"])
           != (len(first["seconds"]), first["i_e1"], first["i_viol"]) for s in steps):
        return None
    rows = [[0.0] + s["seconds"] for s in steps]
    at_row = list(itertools.accumulate(
        min(r[k + 1] - r[k] for r in rows) for k in range(len(first["seconds"]))
    ))
    # lift/copy before the first row and the return after the last one
    rest = min(p["metrics"]["train_s"] - r[-1] for p, r in zip(plain, rows))
    train = at_row[-1] + rest
    return {
        "train_s": train,
        "total_s": train + min(p["metrics"]["total_s"] - p["metrics"]["train_s"]
                               for p in plain),
        "point_iters_per_s": first["point_iters"] / train,
        "t_e1_target_s": train if first["i_e1"] is None else at_row[first["i_e1"]],
        "t_viol_target_s": train if first["i_viol"] is None else at_row[first["i_viol"]],
    }


def measure(workload, seed, seconds, trace, smoke=False):
    """Run repetitions for ``seconds``; return (result line, report lines)."""
    start = time.monotonic()
    plain, traced, errors = [], [], []
    walls = {False: [], True: []}
    checks = {}
    while True:
        elapsed = time.monotonic() - start
        want_traced = trace and len(traced) < len(plain)
        # start a repetition only if it is expected to end within the window
        expected = _median(walls[want_traced]) or _median(walls[False]) or 0.0
        if plain and (traced or not trace) and elapsed + expected > seconds:
            break
        timeout = min(REP_TIMEOUT_S, DEADLINE_S - elapsed)
        if timeout < 5:
            break
        t0 = time.monotonic()
        out = _rep(workload, seed, want_traced, smoke, timeout)
        walls[want_traced].append(time.monotonic() - t0)
        if "error" in out:
            errors.append(out["error"])
            checks.setdefault("run_completes", [0, 0])
            checks["run_completes"][0] += 1
            checks["run_completes"][1] += 1
            if len(errors) >= 2:
                break
            continue
        (traced if want_traced else plain).append(out)
        for name, (a, f) in [*out["checks"].items(), ("run_completes", (1, 0))]:
            acc = checks.setdefault(name, [0, 0])
            acc[0] += a
            acc[1] += f
    runs = plain + traced
    if not plain or (trace and not traced):
        return None, errors
    first = runs[0]["metrics"]["e1_train"]
    checks["same_e1_every_repetition"] = [
        len(runs) - 1, sum(r["metrics"]["e1_train"] != first for r in runs[1:])
    ]
    composed = None if trace else _composed(plain)
    if not trace:
        checks["same_steps_every_repetition"] = [1, int(composed is None)]
    attempted = sum(a for a, _ in checks.values())
    failed = sum(f for _, f in checks.values())
    report = [f"# workload {workload} seed {seed} "
              f"repetitions {len(plain)} untraced, {len(traced)} traced",
              "# env " + json.dumps(plain[0]["env"], sort_keys=True),
              "# train_s of each repetition: "
              + " ".join(f"{r['metrics']['train_s']:.3f}" for r in plain),
              "# median over repetitions: train_s "
              f"{_median([r['metrics']['train_s'] for r in plain]):.6g} s"]
    if trace:
        values = {name: _median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        untraced_train = _median([r["metrics"]["train_s"] for r in plain])
        values["trace_overhead_frac"] = (
            values["traced.train_s"] - untraced_train) / untraced_train
    else:
        # a time-to-target never reached is censored at train_s; its check
        # has already failed the run
        values = {
            name: _median([r["metrics"][name] if r["metrics"][name] is not None
                           else r["metrics"]["train_s"] for r in plain])
            for name in plain[0]["metrics"]
        }
        values.update(composed or {})
    units = _units("per_layer" if trace else "end_to_end")
    missing = set(units) - set(values)
    if missing:
        return None, errors + [f"metrics not measured: {sorted(missing)}"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        report.append(f"{name:40s} {m['value']:.6g} {m['unit']}")
    report.append(f"{'fail_frac':40s} {failed / attempted:.6g} frac "
                  f"({failed} of {attempted} checks failed)")
    for name, (a, f) in sorted(checks.items()):
        if f:
            report.append(f"# check failed: {name} {f} of {a}")
    for e in errors:
        report.append(f"# error: {e}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny workload, for tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "macqp", "__init__.py")):
        print(f"error: no macqp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             smoke=args.smoke)
    if result is None:
        for line in report:
            print(f"error: {line}", file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
