"""The FBF join system's benchmark: one command, four workloads.

Run from the repository root::

    python3 benchmarks/perf/bench.py                     # every workload
    python3 benchmarks/perf/bench.py --workload join-dense --seed 3
    python3 benchmarks/perf/bench.py --workload serve-mixed --trace 1

Without ``--workload`` each workload runs in its own fresh process, one
after another.  A run generates its inputs from ``--seed``, sets up,
makes a fixed number of timed operations (``--seconds`` times the
workload's rate, so the same on every commit), checks the program's
outputs outside the timed region, prints every metric by name with its
unit and writes a JSON run record under ``benchmarks/perf/out/runs/``.
Times are reported at a reference host speed (see ``HostSpeed``).  ``--trace 1`` runs
the workload once more with spans around every layer call, writes
``trace.json`` next to the record and reports the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
the per-layer ones with ``--trace 1``).

Metric names, units and bounds live in ``BENCHMARK.json`` at the root;
``compare.py`` turns two directories of records into verdicts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import (
    OUT,
    ROOT,
    HostSpeed,
    Recorder,
    Tally,
    fingerprint,
    load_spec,
    median,
    time_setups,
)

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: a traced decomposition whose layers miss the untraced time by more
#: than this share is a failed decomposition
MAX_RESIDUAL = 0.15


def _prepare_environment() -> None:
    """Keep every file the program writes inside the checkout: the
    compiled-kernel cache and temp files, compiler scratch included."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(OUT / "native-cache")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))


def _stop_resource_tracker() -> None:
    """Shared memory starts multiprocessing's resource tracker; stop it
    and wait for it, so a run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def _print_metrics(title: str, defs: list[dict], values: dict, notes: dict):
    print(f"  {title}:")
    for m in defs:
        note = notes.get(m["name"], "")
        print(f"    {m['name']:<30} = {values[m['name']]:<14.6g} "
              f"{m['unit']:<8} {note}".rstrip())


def run_one(args, spec: dict) -> int:
    _prepare_environment()
    import workloads

    w = workloads.SCALES[args.scale][args.workload]()
    why = next(x["why"] for x in spec["workloads"] if x["name"] == w.name)
    tally = Tally()
    host = HostSpeed()
    count = w.count(args.seconds)
    started = time.time()
    print(f"workload {w.name}  seed {args.seed}  scale {args.scale}  "
          f"seconds {args.seconds:g} ({count} timed operations)  "
          f"trace {args.trace}", flush=True)
    try:
        t0 = time.perf_counter()
        inputs = w.inputs(args.seed)
        inputs["generation_s"] = time.perf_counter() - t0
        state, setups = time_setups(w.setup, SETUP_REPS, host.probe)
        raw, samples = w.measure(state, count, host, tally)
        state = None
        rss = workloads.peak_rss_mb()
        w.check(tally)
        per_layer = layers = rec = None
        if args.trace:
            rec = Recorder()
            per_layer, layers = w.trace(rec, tally)
            residual = layers["residual"]
            if args.scale == "full" and residual is not None:
                tally.check(
                    f"trace decomposition within |residual| <= {MAX_RESIDUAL}",
                    abs(residual) <= MAX_RESIDUAL,
                    f"residual {residual:.4f}",
                )
            # A layer this workload does not run reads 0.
            per_layer = {m["name"]: per_layer.get(m["name"], 0)
                         for m in spec["per_layer"]}
        env = fingerprint(seed=args.seed, scale=args.scale,
                          seconds=args.seconds, workers=w.workers)
    finally:
        w.close()
        gc.collect()

    unscaled = {
        "setup_s": median(setups),
        "throughput": raw["work"] / raw["work_s"],
        "p50_ms": median(raw["latency_s"]) * 1e3,
    }
    factor = host.factor
    e2e = {
        "setup_s": unscaled["setup_s"] / factor,
        "throughput": unscaled["throughput"] * factor,
        "p50_ms": unscaled["p50_ms"] / factor,
        "peak_rss_mb": rss,
    }

    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(started))
    run_dir = args.out / (f"{stamp}-{os.getpid()}-{w.name}-s{args.seed}"
                          f"-t{args.trace}")
    run_dir.mkdir(parents=True, exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": w.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "count": count,
        "trace": bool(args.trace),
        "started": started,
        "wall_s": time.time() - started,
        "fingerprint": env,
        "host": {"factor": factor, "probe_s": host.samples},
        "inputs": inputs,
        "setup_s": setups,
        "end_to_end": {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        },
        "unscaled": unscaled,
        "latency_s": raw["latency_s"],
        "samples": samples,
        "per_layer": None if per_layer is None else {
            name: {"value": v, "unit": units[name]}
            for name, v in per_layer.items()
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "checks": tally.checks,
        "errors": tally.errors,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        trace_doc = {
            "workload": w.name,
            "seed": args.seed,
            "residual": layers["residual"],
            "overhead": per_layer["trace.overhead"],
            "layers": layers,
            "spans": rec.as_list(),
        }
        (run_dir / "trace.json").write_text(json.dumps(trace_doc))

    alias = samples.get("as", {})
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "throughput": f"{samples['work']} per timed second, "
                      f"{count} operations",
        "p50_ms": f"median {samples['op']}, {len(raw['latency_s'])} samples",
    }
    notes = {k: f"{v} (= {alias[k]})" if k in alias else v
             for k, v in notes.items()}
    _print_metrics(f"end-to-end (at the reference host speed; this run's "
                   f"host factor {factor:.3f})", spec["end_to_end"], e2e, notes)
    also = dict(samples.get("also", {}),
                error_rate=tally.failed / max(1, tally.attempted))
    for name, value in also.items():
        print(f"    {name:<30} = {value:<14.6g} (recorded, no bound)")
    if per_layer is not None:
        _print_metrics("per-layer (traced run)", spec["per_layer"], per_layer, {})
    passed = sum(c["ok"] for c in tally.checks)
    print(f"  checks: {passed} of {len(tally.checks)} passed; "
          f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for c in tally.checks:
        if not c["ok"]:
            print(f"    FAILED {c['name']}: {c['detail']}")
    print(f"  record: {run_dir / 'record.json'}")
    shown = per_layer if args.trace else e2e
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
            for m in defs
        },
    }), flush=True)
    _stop_resource_tracker()
    return 0


def run_all(args, names: list[str]) -> int:
    """Each workload in a fresh process, one after another; the last
    line sums them up, metrics keyed ``workload/metric``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--out", str(args.out)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            last = ""
            for line in proc.stdout:
                print(line, end="", flush=True)
                last = line
        if proc.returncode != 0:
            code = proc.returncode
            total["correct"] = False
            continue
        result = json.loads(last)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total), flush=True)
    return code


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload in this process (default: all, "
                         "each in its own process)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed: the same seed gives the same inputs")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="run length: each workload makes this many times "
                         "its rate of timed operations, about this many "
                         "seconds on the reference host (default "
                         "%(default)s)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: also run the traced decomposition and report "
                         "the per-layer metrics")
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for testing the harness")
    ap.add_argument("--out", type=Path, default=OUT / "runs",
                    help="directory for run records (default %(default)s)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
