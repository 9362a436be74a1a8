"""Command-line entry points.

Subcommands: ``train`` (run a configured experiment), ``bench-parallel``
(same workload across worker counts), ``eval`` (score a checkpoint on a
dataset) and ``synth`` (generate a synthetic manifold dataset).
"""

import argparse
import csv
import os
import sys

from .model import MacqpError


def _cmd_train(args):
    from .harness import run_experiment

    result = run_experiment(args.config)
    print(f"trace:  {result['trace_path']}")
    print(f"model:  {result['model_path']}")
    print(f"E1 train: {result['e1_train']:.6g}  E1 val: {result['e1_val']:.6g}")
    return 0


def _cmd_bench_parallel(args):
    from .harness import load_config
    from .parallel import parse_worker_count, speedup_bench

    counts = [parse_worker_count(w, "--workers") for w in args.workers.split(",")]
    cfg = load_config(args.config)
    out_dir = cfg.get("output_dir", ".")
    rows = speedup_bench(cfg, counts, base_output_dir=out_dir)
    path = os.path.join(out_dir, "bench.csv")
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["workers", "seconds", "speedup"])
        for w, secs, sp in rows:
            writer.writerow([w, f"{secs:.6f}", f"{sp:.3f}"])
            print(f"workers={w:2d}  seconds={secs:8.3f}  speedup={sp:5.2f}x")
    print(f"wrote {path}")
    return 0


def _cmd_eval(args):
    from .harness import eval_model

    res = eval_model(args.model, args.data, args.format)
    print(f"E1 = {res['e1']:.6g} over {res['n']} samples "
          f"({res['per_sample']:.6g} per sample)")
    return 0


def _cmd_synth(args):
    from .data import save_dataset_csv, save_dataset_f64bin, synth_manifold_dataset
    from .harness import _synth_args

    # the checks a config's dataset.synth section gets, before any file is
    # written; an error names the key's flag: --n, --ambient-dim, ...
    ds = synth_manifold_dataset(**_synth_args({
        "n": args.n, "ambient_dim": args.ambient_dim, "intrinsic_dim": args.intrinsic_dim,
        "noise": args.noise, "seed": args.seed,
    }, name=lambda key: "--" + key.replace("_", "-")))
    if args.format == "csv":
        save_dataset_csv(ds, args.out)
    else:
        save_dataset_f64bin(ds, args.out)
    print(f"wrote {args.out} ({ds.n} x {ds.X.shape[1]})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="macqp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench-parallel", help="time the same run across worker counts")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", default="1,2,4,8",
                   help="comma-separated worker counts")
    p.set_defaults(func=_cmd_bench_parallel)

    p = sub.add_parser("eval", help="score a model checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="f64bin", choices=["csv", "f64bin"])
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic manifold dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--ambient-dim", type=int, default=64)
    p.add_argument("--intrinsic-dim", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="f64bin", choices=["csv", "f64bin"])
    p.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MacqpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
