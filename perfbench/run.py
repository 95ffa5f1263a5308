"""tagspot benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The launcher (this process) generates the
workload's inputs from the seed before any timing, starts five fresh
interpreters to time set-up, then starts one measuring worker that did not
generate the inputs, so its peak RSS is the spotter's own. The load is a
closed loop of one client in one process; BLAS and OpenMP run one thread.

With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric instead. The lines before it are a readable report: the
environment stamp, the input digests, the figures named for this
workload with unit and sample count, and every correctness check.
"""

from __future__ import annotations

import os

# fixed before numpy loads here or in any child, identically on every commit
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REF_NOMINAL_S  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 140
# consecutive operations are grouped into blocks of at least this much
# operation time, each scaled by the host's speed during it
BLOCK_S = 2.0


def _environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        env["blas"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    env["caches"] = caches
    return env


def _setup_times(name: str, workdir: Path) -> "list[float]":
    """Set-up time of each fresh interpreter, scaled to the reference host
    speed by the reference kernel's median time during that set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=workdir, capture_output=True, text=True, timeout=60, check=True,
        )
        ready, ref = (float(v) for v in proc.stdout.split()[-2:])
        times.append((ready - start) * REF_NOMINAL_S / ref)
    return times


def _normalized_mean(ops: "list[float]", ref: "list[list]") -> float:
    """Mean operation time at the reference host speed.

    Consecutive operations form blocks of at least BLOCK_S; an operation
    longer than that is a block of its own, and a last block cut short by
    the end of the run is dropped unless it is the only one. A block's
    mean operation time is scaled by REF_NOMINAL_S over the median time of
    the reference kernel sampled during that block's operations. The
    result is the median over blocks, so a block the host stalled does not
    move it. The mean, not the median, is taken within a block because the
    two arms of `trials` take different times, and the median of such a
    mix sits in the gap between them, where it jumps with every small shift.
    """
    by_op: "dict[int, list[float]]" = {}
    for op, seconds in ref:
        by_op.setdefault(op, []).append(seconds)
    blocks, block, spent = [], [], 0.0
    for i, t in enumerate(ops):
        block.append(i)
        spent += t
        if spent >= BLOCK_S:
            blocks.append(block)
            block, spent = [], 0.0
    if not blocks:
        blocks.append(block)
    values = []
    for block in blocks:
        samples = [s for i in block for s in by_op.get(i, ())]
        if not samples:
            raise RuntimeError("a block of operations holds no host-speed sample")
        scale = REF_NOMINAL_S / statistics.median(samples)
        values.append(scale * statistics.fmean(ops[i] for i in block))
    return statistics.median(values)


def _workload_figures(name: str, run: dict, report: dict, peak_rss: float) -> "list[tuple]":
    """The figures named for this workload, as (name, value, unit, samples)."""
    ops = run["op_s"]
    if name.startswith("capture"):
        return [
            ("spot_msps", run["units"] / sum(ops) / 1e6, "Msamples/s", len(ops)),
            ("peak_rss_mb", peak_rss, "MB", 1),
        ]
    if name == "trials":
        beyond = len(ops) - int(0.99 * len(ops))
        return [
            ("trials_per_s", len(ops) / sum(ops), "1/s", len(ops)),
            ("trial_p50_ms", 1e3 * statistics.median(ops), "ms", len(ops)),
            (f"trial_p99_ms ({beyond} beyond)",
             1e3 * statistics.quantiles(ops, n=100)[98], "ms", len(ops)),
        ]
    return [
        ("curves_s", statistics.median(report["curves_s"]), "s", len(report["curves_s"])),
        ("sweep_s", statistics.median(report["sweep_s"]), "s", len(report["sweep_s"])),
        ("mc_draws_per_s", run["units"] / sum(ops), "1/s", len(ops)),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tagspot").is_dir() or not spec_path.is_file():
        print(f"needs src/tagspot and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be nonnegative")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    name = args.workload

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = WORKLOADS[name]().generate(seed, workdir)
        setup = _setup_times(name, workdir)
        result_file = workdir / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), name, str(seed),
             repr(seconds), str(args.trace), str(result_file)],
            cwd=workdir, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_file.exists():
            print(f"measuring worker exited {proc.returncode}", file=sys.stderr)
            return 1
        out = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    run, report = out["run"], out["report"]
    checks = [tuple(c) for c in out["checks"]] + [tuple(c) for c in out.get("reconcile", [])]
    attempted = run["attempted"] + len(checks)
    failed = run["failed"] + sum(not ok for _, ok, _ in checks)

    print(f"workload: {name}  seed: {seed}  seconds: {seconds}  trace: {args.trace}")
    for key, value in _environment().items():
        print(f"env.{key}: {value}")
    for key, value in {**inputs, **out["provenance"]}.items():
        print(f"input.sha256 {key}: {value}")
    for key, value in report.items():
        print(f"report.{key}: {value}")
    for label, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    if "op_s" in run:
        ops = sorted(run["op_s"])
        print(f"op_s: min {ops[0]:.6g} median {statistics.median(ops):.6g} "
              f"max {ops[-1]:.6g} (n={len(ops)})")
    if "ref_s" in run:
        ref = [s for _, s in run["ref_s"]]
        print(f"host speed: reference kernel median {1e6 * statistics.median(ref):.6g} us, "
              f"nominal {1e6 * REF_NOMINAL_S:.6g} us (n={len(ref)})")
    print(f"fail_ratio: {failed / attempted:.6g} ratio (n={attempted})")
    print(f"setup_s: {statistics.median(setup):.6g} s (n={len(setup)})")

    if args.trace:
        layers = out["layers"]
        print(f"trace: untraced {run['wall_s']:.6g} s, traced {run['traced_wall_s']:.6g} s")
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0) for m in wanted}
    else:
        for label, value, unit, n in _workload_figures(name, run, report, out["peak_rss_mb"]):
            print(f"{label}: {value:.6g} {unit} (n={n})")
        ops = run["op_s"]
        values = {
            "setup_s": statistics.median(setup),
            "op_mean_norm_ms": 1e3 * _normalized_mean(ops, run["ref_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        print(f"metric {m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
