"""Measuring process of the benchmark, in a fresh interpreter.

    worker.py WORKLOAD SEED SECONDS TRACE RESULT_FILE

Runs in the work directory that holds the generated inputs. With TRACE 0
it repeats the workload's operation, untraced, until another one would run
past SECONDS (but at least the workload's minimum), while hostspeed.py
samples the host's speed. With TRACE 1 it runs the workload's trace pass
twice, untraced then traced, and derives the per-layer metrics from the
spans. Writes a JSON result to RESULT_FILE.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hostspeed import HostSpeedSampler  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _loop(workload, seconds: float, min_ops: int, sampler=None) -> dict:
    """Runs operations until another one would end past `seconds`. With a
    sampler, each operation's time excludes the sampler's handler time."""
    times, units, failed = [], 0, 0
    begin = time.perf_counter()
    i = 0
    while True:
        if sampler:
            sampler.op, spent = i, sampler.spent
        t0 = time.perf_counter()
        try:
            result = workload.run_op(i)
        except Exception:
            traceback.print_exc()
            result, ok = None, False
        else:
            ok = True
        elapsed_op = time.perf_counter() - t0
        if sampler:
            sampler.op = -1
            elapsed_op -= sampler.spent - spent
        times.append(elapsed_op)
        if ok:
            try:
                ok = workload.check_op(i, result)
            except Exception:
                traceback.print_exc()
                ok = False
            units += workload.units(result) if ok else 0
        failed += not ok
        i += 1
        elapsed = time.perf_counter() - begin
        if i >= min_ops and elapsed + elapsed / i > seconds:
            break
    return {
        "op_s": times,
        "units": units,
        "wall_s": time.perf_counter() - begin,
        "attempted": i,
        "failed": failed,
    }


def _layer_metrics(summary: dict, excess: float, counts: dict) -> dict:
    def get(span: str, field: str) -> float:
        return summary.get(span, {}).get(field, 0)

    metrics: "dict[str, float]" = {}
    for span, row in summary.items():
        for field, value in row.items():
            metrics[f"{span}.{field}"] = value
    metrics.update(counts)
    total = counts.get("detector.windows_total", 0)
    gated = counts.get("detector.windows_gated", 0)
    events = counts.get("detector.events", 0)
    ffts = total - gated
    metrics["detector.ffts"] = ffts
    metrics["detector.gated_ratio"] = gated / total if total else 0.0
    metrics["detector.events_per_fft"] = events / ffts if ffts else 0.0
    metrics["detector.us_per_window"] = (
        1e6 * get("detector.spot_report", "s") / total if total else 0.0
    )
    draws = counts.get("analysis.pf_family_mc.draws", 0) + counts.get("analysis.pm_mc.draws", 0)
    mc_s = get("analysis.pf_family_mc", "s") + get("analysis.pm_mc", "s")
    metrics["analysis.mc_draws_per_s"] = draws / mc_s if mc_s else 0.0
    metrics["trace.child_self_excess_s"] = max(excess, 0.0)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, result_file: Path) -> None:
    workload = WORKLOADS[name]()
    workload.setup()
    workload.prepare(seed, Path.cwd())
    out: dict = {}
    if not trace:
        sampler = HostSpeedSampler()
        sampler.start()
        try:
            out["run"] = _loop(workload, seconds, workload.min_ops, sampler)
        finally:
            sampler.stop()
        out["run"]["ref_s"] = sampler.samples
    else:
        passes = workload.trace_ops
        plain = _loop(workload, 0.0, passes)
        tracer = Tracer()
        tracer.install(workload.patches())
        try:
            traced = _loop(workload, 0.0, passes)
            # builtin_codebook() as set-up calls it, under its span
            workload.setup()
        finally:
            tracer.restore()
        summary, excess = tracer.summary()
        layers = _layer_metrics(summary, excess, tracer.counts)
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        layers["trace.spans"] = len(tracer.spans)
        out["run"] = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
        }
        out["layers"] = layers
        out["reconcile"] = workload.reconcile(layers, traced["attempted"])
    out["checks"] = workload.final_checks()
    out["provenance"] = workload.provenance()
    out["report"] = workload.report()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_file.write_text(json.dumps(out))


if __name__ == "__main__":
    name, seed, seconds, trace, result_file = sys.argv[1:]
    measure(name, int(seed), float(seconds), trace == "1", Path(result_file))
