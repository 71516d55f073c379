"""curveflow benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``
there and nowhere else.  ``--trace 0`` measures the end-to-end metrics with
tracing off.  ``--trace 1`` repeats the same untraced units, then traces one
set-up plus one unit and reports the per-layer metrics from those spans.
The last stdout line is one JSON object (correct, attempted, failed,
metrics); the exit status is 1 when any output check failed and 2 when the
benchmark could not run.  Spans and a full report go to ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
TAIL_BEYOND = 10  # the tail is the highest percentile with this many items above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("sweep", "domination", "wide-grid")

# the ROADMAP's one-off profile figures, reported beside the measured ones
ROADMAP = {
    "operators.kernel_reuse": "120/720 = 0.1667 (acceptance 10)",
    "harness.distinct_sigma_share": "17314/17408 = 0.9946 (acceptance 12)",
    "harness.shifted_maximal_rows_share": "143.6/159.8 s = 0.899 (acceptance 12)",
}


def _pin_threads() -> None:
    # one process, one BLAS/OpenMP thread: the load stays within the 2 CPUs
    # the sizing was done on and run-to-run spread stays small
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CURVEFLOW_FIXTURES", None)  # the packaged thresholds only


def _import_library():
    """Import curveflow from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import curveflow
    except ImportError as e:
        print(f"perfbench: cannot import curveflow from {ROOT / 'src'}: {e}", file=sys.stderr)
        sys.exit(2)
    origin = pathlib.Path(curveflow.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        print(f"perfbench: curveflow imported from {origin}, not from {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import + input generation + certification, print seconds")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _machine() -> dict:
    import numpy as np
    import scipy
    import scipy.fft

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "platform": platform.platform(),
        "load": "one process, one client, closed loop",
    }


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time as a CLI user pays it, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _tail(sorted_vals):
    """(percentile, value) of the highest percentile with TAIL_BEYOND items above."""
    n = len(sorted_vals)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} items are too few for a tail percentile")
    rank = n - TAIL_BEYOND  # 1-based rank of the tail item
    return 100.0 * rank / n, sorted_vals[rank - 1]


def _end_to_end(unit_walls, tally, setup_times, oracle_err) -> dict:
    lat = sorted(tally.latencies)
    tail = _tail(lat)
    wall = statistics.median(unit_walls)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(lat) / len(unit_walls) / wall, "1/s"),
        "item_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "item_ms_tail": (1e3 * tail[1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "oracle_err": (oracle_err, "abs"),
    }, {"items": len(lat), "tail_percentile": tail[0],
        "item_ms_sorted": [1e3 * v for v in lat]}


def _per_layer(tracer, traced_wall, untraced_wall) -> dict:
    stats = tracer.function_stats()

    def st(name, key):
        return stats.get(name, {}).get(key, 0)

    builds = tracer.counts["kernel_builds"]
    m = {}
    for name in ("operators.carleson_apply", "harness.lp_norm", "dyadic.project",
                 "kernel.kernel_integral", "curves.check_conditions"):
        m[f"{name}.calls"] = (st(name, "calls"), "count")
        m[f"{name}.s"] = (st(name, "s"), "s")
    for name in ("operators.annulus_piece_apply", "operators.truncated_piece_apply",
                 "operators.shifted_maximal", "operators.hl_maximal",
                 "gridfn.write_grid_function", "gridfn.read_grid_function"):
        m[f"{name}.s"] = (st(name, "s"), "s")
    for name in ("harness.domination_experiment", "harness.sweep_modulations", "cli.main"):
        m[f"{name}.self_s"] = (st(name, "self_s"), "s")
    m["operators.kernel_builds"] = (builds, "count")
    m["operators.distinct_kernels"] = (tracer.distinct_kernels, "count")
    m["operators.kernel_reuse"] = (tracer.distinct_kernels / builds if builds else 0.0, "ratio")
    m["harness.sigma_evals"] = (tracer.counts["sigma_evals"], "count")
    m["harness.distinct_sigma"] = (tracer.distinct_sigmas, "count")
    m["gridfn.bytes"] = (tracer.counts["grid_bytes"], "bytes")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def _cross_check(metrics, traced_wall) -> dict:
    """Measured counterparts of the ROADMAP figures this workload exercises."""
    evals = metrics["harness.sigma_evals"][0]
    dom_self = metrics["harness.domination_experiment.self_s"][0]
    measured = {
        "operators.kernel_reuse": metrics["operators.kernel_reuse"][0],
        "harness.distinct_sigma_share": metrics["harness.distinct_sigma"][0] / evals if evals else 0,
        # the row-wise shifted maximal is private, so its time is in the
        # experiment's self time
        "harness.shifted_maximal_rows_share": dom_self / traced_wall,
    }
    return {k: {"measured": v, "roadmap": ROADMAP[k]} for k, v in measured.items() if v}


def _probe_main(args) -> int:
    t0 = time.perf_counter()
    workloads = _import_library()
    OUT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _traced_unit(cls, wl, args, tally, workdir):
    """One traced set-up plus one traced unit; returns (tracer, unit wall)."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_id = f"{args.workload}:{args.seed}:setup"
        setup_dir = workdir / "traced-setup"
        setup_dir.mkdir()
        cls(args.seed, setup_dir)
        tracer.run_id = f"{args.workload}:{args.seed}:unit"
        t0 = time.perf_counter()
        wl.run_unit(tally)
        return tracer, time.perf_counter() - t0
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_threads()
    if args.setup_probe:
        return _probe_main(args)
    workloads = _import_library()
    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    units = cls.units(args.seconds)
    # set-up time swings with the machine's state, so the probes are spread
    # over the run (before the first unit, midway, after the last) rather
    # than taken back to back
    probe_at = [] if args.trace else [round(i * units / (SETUP_PROBES - 1))
                                      for i in range(SETUP_PROBES)]
    setup_times = []
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = None
    try:
        wl = cls(args.seed, workdir)
        tally = workloads.Tally()
        wl.prepare(tally)
        oracle_err = workloads.oracle_error()
        tally.check("classical-limit oracle", lambda: [] if oracle_err < workloads.ORACLE_GATE
                        else [f"oracle error {oracle_err:.3e} >= {workloads.ORACLE_GATE}"])
        unit_walls = []
        for i in range(units + 1):
            setup_times += [_setup_probe(args.workload, args.seed)
                            for _ in range(probe_at.count(i))]
            if i < units:
                t0 = time.perf_counter()
                wl.run_unit(tally)
                unit_walls.append(time.perf_counter() - t0)
        if args.trace:
            tracer, traced_wall = _traced_unit(cls, wl, args, tally, workdir)
            metrics = _per_layer(tracer, traced_wall, statistics.median(unit_walls))
            extra = {"cross_check": _cross_check(metrics, traced_wall),
                     "functions": tracer.function_stats()}
        else:
            metrics, extra = _end_to_end(unit_walls, tally, setup_times, oracle_err)
            extra["setup_times_s"] = setup_times
        props = wl.properties()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": units, "unit_walls_s": unit_walls,
        "why": cls.why, "item": cls.item, "properties": props,
        "machine": _machine(), "oracle_err": oracle_err,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.span_records()) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {units} unit(s), item = {cls.item}")
    print(f"why: {cls.why}")
    print("inputs " + json.dumps(props, default=str))
    print("machine " + json.dumps(record["machine"]))
    for k, (v, u) in metrics.items():
        print(f"metric {k} = {v:.6g} {u}")
    if args.trace:
        for k, v in extra["cross_check"].items():
            print(f"cross-check {k}: measured {v['measured']:.4g}, ROADMAP {v['roadmap']}")
    else:
        print(f"item_ms_tail is p{extra['tail_percentile']:.1f} of {extra['items']} items")
    print(f"fail_frac = {tally.failed}/{tally.attempted}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = 2
    sys.exit(code)
