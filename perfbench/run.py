"""adasig benchmark: one workload, one seed, one closed-loop run.

Usage, from the repository root:

    python3 perfbench/run.py --workload report-sweep --seed 0 --seconds 36 --trace 0

A single client runs one operation at a time until --seconds have passed
(a new operation starts only while at least half of the last one's
duration is left). With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 one untraced operation is followed by
traced ones and the last line carries the per-layer metrics and the
tracing overhead. Times are in reference seconds, wall time scaled by a
calibration kernel timed while the program runs (pace.py); raw wall times
are kept in the line before the result, a JSON detail record with the
environment, inputs, checks and counts. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
# One BLAS thread: a single closed-loop client on a small shared machine,
# where BLAS is a small share of every workload.
BLAS_THREADS = 1
SETUP_PROBES = 7
WORKLOADS = ("report-sweep", "rnn-fit", "dense-record")  # as in workloads.py


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def blas_info() -> dict:
    """BLAS library name, version and live thread count."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes = []
            get.restype = ctypes.c_int
            info["threads"] = get()
    return info


def git_commit() -> str:
    """HEAD of the checkout if it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_hash() -> str:
    """Hash of the package sources, which names the code without git."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "adasig").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int, index: int) -> dict:
    import platform

    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "source_hash": source_hash(),
        "workload": workload,
        "seed": seed,
        "input_index": index,
    }


def setup_samples(config_path: Path, n: int) -> list[dict]:
    """Set-up time of n fresh processes, one after the other."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def closed_loop(seconds: float, start: float, run_one) -> list:
    """Run operations back to back until the time is used; at least one."""
    results, last = [], 0.0
    while not results or time.perf_counter() - start + 0.5 * last <= seconds:
        t0 = time.perf_counter()
        results.append(run_one())
        last = time.perf_counter() - t0
    return results


def bootstrap() -> bool:
    """Pin the BLAS threads and import adasig from this checkout's sources."""
    if not (SRC / "adasig" / "__init__.py").is_file():
        print(f"error: no adasig sources under {SRC}", file=sys.stderr)
        return False
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import adasig

    if Path(adasig.__file__).resolve().parent != (SRC / "adasig").resolve():
        print(f"error: imported adasig from {adasig.__file__}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap():
        return 2

    import metrics
    import workloads as wl
    from pace import KERNEL_REF_S, Pace
    from tracer import Tracer, install_layer_hooks, install_phase_hooks

    index = wl.input_index(args.seed)
    config = wl.make_config(args.workload, index)
    ref = wl.load_reference(REFERENCE).get(args.workload, {}).get(str(index))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = work / "out"
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))

    detail = {"env": environment(args.workload, args.seed, index),
              "inputs": {"true_theta": config["true"]["theta"],
                         "config_seed": config["simulation"]["seed"],
                         "s0": config["simulation"]["s0"]},
              "blas_threads_requested": BLAS_THREADS}
    checks = []
    pace = Pace()

    def one(tracer, traced: bool):
        t0 = time.perf_counter()
        try:
            op = wl.run_op(args.workload, config_path, out_dir, tracer, pace)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            checks.append({"traced": traced, "misses": ["exception"], "hash_exact": False})
            return None, None
        ratio = pace.ratio(t0, time.perf_counter())
        layer = metrics.layers(tracer, op, ratio) if traced and op.exit_code == 0 else None
        misses, exact = wl.check_op(op, config, ref)
        checks.append({"traced": traced, "misses": misses, "hash_exact": exact,
                       "command_s": op.command_s, "wall_s": op.wall_s, "ratio": ratio,
                       "counts": metrics.layer_counts(tracer, op) if layer else op.counts()})
        return (op if op.exit_code == 0 else None), layer

    start = time.perf_counter()
    try:
        if args.trace == 0:
            probes = setup_samples(config_path, SETUP_PROBES)
            detail["setup_probes"] = probes
            tracer = Tracer()
            install_phase_hooks(tracer)
            with tracer, pace:
                results = closed_loop(args.seconds, time.perf_counter(), lambda: one(tracer, False))
            ops = [op for op, _ in results if op is not None]
            result_metrics = (metrics.end_to_end(ops, [p["setup_s"] for p in probes])
                              if ops else {})
            if ops and args.workload == "rnn-fit":
                detail["fit_s"] = statistics.median(op.fit_s for op in ops)
        else:
            tracer = Tracer()
            install_phase_hooks(tracer)
            with tracer, pace:
                base, _ = one(tracer, False)
                install_layer_hooks(tracer)
                traced = [r for r in closed_loop(args.seconds, start, lambda: one(tracer, True))
                          if r[0] is not None]
            ops = ([base] if base else []) + [op for op, _ in traced]
            result_metrics = {}
            if base and traced:
                overhead = statistics.median(op.command_s for op, _ in traced) / base.command_s
                result_metrics, own = metrics.per_layer([layer for _, layer in traced],
                                                        overhead, args.workload)
                detail["workload_layers"] = own
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    attempted = len(checks)
    failed = sum(1 for c in checks if c["misses"])
    # Counts repeat exactly between operations of a run; the traced run also
    # compares its untraced operation with the traced ones.
    observable = [{k: c["counts"][k] for k in ("integrator.steps", "integrator.rows_recorded",
                                                "integrator.csv_bytes")}
                  for c in checks if "counts" in c]
    traced_counts = [c["counts"] for c in checks if c["traced"] and "counts" in c]
    hashes = [tuple(t["hash"] for t in op.signature["trajectories"]) for op in ops]
    counts_repeat = (len({json.dumps(c, sort_keys=True) for c in observable}) <= 1
                     and len({json.dumps(c, sort_keys=True) for c in traced_counts}) <= 1
                     and len(set(hashes)) <= 1)
    ref_counts = (ref or {}).get("layer_counts" if args.trace else "counts")
    seen_counts = (traced_counts or observable or [None])[0]
    detail.update({
        "pace": {"kernel_ref_s": KERNEL_REF_S, "period_s": pace.period,
                 "samples": len(pace.ratios),
                 "median_ratio": statistics.median(pace.ratios) if pace.ratios else None},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "counts_repeat": counts_repeat,
        "counts_match_reference": seen_counts == ref_counts if ref_counts else None,
        "hash_exact_frac": sum(c["hash_exact"] for c in checks) / attempted,
        "checks": checks,
    })
    correct = failed == 0 and counts_repeat and bool(result_metrics)

    for name, m in {**result_metrics, **detail.get("workload_layers", {})}.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if "fit_s" in detail:
        print(f"{'fit_s':32s} {detail['fit_s']:.6g} s")
    print(f"{'failed_frac':32s} {detail['failed_frac']:.6g} fraction "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
