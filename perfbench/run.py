"""so3fft benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop: one client
process, one operation in flight at a time, until S seconds have passed
(and at least MIN_OPS operations, so the latency tail exists).  Outputs are
checked after the loop.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones, taken from spans recorded around the library's public
functions.  The line before it is a report with the environment, the
latency-tail percentile and sample count, set-up samples and any failures;
reports and span files are also written under ``.bench_out/``.

The benchmark sets no thread variables: it runs under the environment it
is given and records it.
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
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

from tracer import Recorder, exclusive_times, install, union_length, wall_shares
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 11  # the tail is the highest percentile with >= 10 samples beyond it
TAIL_BEYOND = 10
HARD_STOP_S = 100.0  # keeps a run well inside its time limit on a slow machine
SETUP_REPEATS = 3  # set-up time is the median of this many cold set-ups

E2E = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# spans whose wall-clock share is reported as "<name>.self_ms"
SELF_SPANS = [
    "gft.s2_fft_forward",
    "gft.s2_fft_inverse",
    "gft.so3_fft_forward",
    "gft.so3_fft_inverse",
    "correlation.multichannel_correlate",
    "correlation.rotate_so3_spectral",
    "correlation.relu_spatial",
    "correlation.so3_integrate",
    "harmonics.build_tables",
    "harmonics.cached_tables",
    "harmonics.wigner_D_matrices",
    "signals.crc64",
    "signals.read_container",
    "signals.write_container",
    "signals.project_image",
    "harness.run_equivariance",
    "parallel.parallel_map",
    "parallel.item",
    "cli.main",
]
CALL_SPANS = [
    "gft.s2_fft_forward",
    "gft.s2_fft_inverse",
    "gft.so3_fft_forward",
    "gft.so3_fft_inverse",
    "correlation.multichannel_correlate",
    "harmonics.build_tables",
    "harmonics.wigner_D_matrices",
    "signals.crc64",
]
PER_LAYER = (
    [(f"{name}.calls", "count", "lower") for name in CALL_SPANS]
    + [(f"{name}.self_ms", "ms", "lower") for name in SELF_SPANS]
    + [
        ("cli.process_overhead_ms", "ms", "lower"),
        ("gft.so3_fft_forward.mb_per_s_computed", "MB/s", "higher"),
        ("gft.so3_fft_inverse.mb_per_s_computed", "MB/s", "higher"),
        ("gft.imag_residue_max", "rel", "lower"),
        ("gft.roundtrip_err_max", "rel", "lower"),
        ("harmonics.cached_tables.hit_ratio", "ratio", "higher"),
        ("harmonics.table_mb_computed", "MB", "lower"),
        ("signals.crc64.mb_per_s", "MB/s", "higher"),
        ("signals.read_container.mb", "MB", "lower"),
        ("signals.write_container.mb", "MB", "lower"),
        ("parallel.parallel_map.items", "count", "lower"),
        ("parallel.parallel_map.wall_ms", "ms", "lower"),
        ("parallel.parallel_map.busy_ratio", "ratio", "higher"),
        ("unattributed_ms", "ms", "lower"),
        ("traced_op_mean_ms", "ms", "lower"),
        ("tracing_overhead", "ratio", "higher"),
    ]
)


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        blas = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "numpy": numpy.__version__,
        "numpy_config": blas,
        "threads_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SO3FFT_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version,
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# timed loop


class Measurement:
    def __init__(self, first: int):
        self.first = first  # index of the first operation
        self.windows: list[tuple[int, int]] = []  # perf_counter_ns per op
        self.outputs: list = []
        self.errors: dict[int, str] = {}

    @property
    def latencies_s(self) -> list[float]:
        return [(end - start) / 1e9 for start, end in self.windows]

    @property
    def ops_per_s(self) -> float:
        return len(self.windows) / ((self.windows[-1][1] - self.windows[0][0]) / 1e9)


def measure(wl, seconds: float, min_ops: int, rec=None, first_op: int = 0) -> Measurement:
    m = Measurement(first_op)
    first = time.perf_counter_ns()
    i = first_op
    while True:
        scope = rec.adopt(None, i) if rec is not None else nullcontext()
        start = time.perf_counter_ns()
        try:
            with scope:
                out = wl.op(i, rec)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            m.errors[i] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        m.windows.append((start, end))
        m.outputs.append(out)
        i += 1
        elapsed = (end - first) / 1e9
        if i % wl.cycle == 0 and (
            (elapsed >= seconds and i - first_op >= min_ops) or elapsed >= HARD_STOP_S
        ):
            return m


def tail(latencies: list[float]):
    """Highest order statistic with TAIL_BEYOND samples above it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None, None
    rank = n - TAIL_BEYOND  # 1-based
    return sorted(latencies)[rank - 1], 100.0 * rank / n


def cold_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(spans, m: Measurement, health: dict, untraced_ops_per_s: float) -> dict:
    n_ops = len(m.windows)
    by_op: dict[int, list] = {}
    for sp in spans:
        if isinstance(sp["op"], int):
            by_op.setdefault(sp["op"], []).append(sp)
    share, excl, calls, nbytes, dur = (defaultdict(float) for _ in range(5))
    residue, items, capacity = 0.0, 0, 0
    lookups = misses = 0
    for op_spans in by_op.values():
        shares = wall_shares(op_spans)
        exclusive = exclusive_times(op_spans)
        built_under = {sp["parent"] for sp in op_spans if sp["name"] == "harmonics.build_tables"}
        for sp in op_spans:
            name = sp["name"]
            share[name] += shares[sp["id"]]
            excl[name] += exclusive[sp["id"]]
            calls[name] += 1
            nbytes[name] += sp.get("bytes", 0)
            dur[name] += sp["end"] - sp["start"]
            residue = max(residue, sp.get("imag_residue", 0.0))
            if name == "parallel.parallel_map":
                items += sp["items"]
                capacity += (sp["end"] - sp["start"]) * sp["workers"]
            if name == "harmonics.cached_tables":
                lookups += 1
                misses += sp["id"] in built_under
    unattributed = 0
    for op, (start, end) in enumerate(m.windows, start=m.first):
        top = [(sp["start"], sp["end"]) for sp in by_op.get(op, []) if sp["parent"] is None]
        unattributed += end - start - union_length(top)

    def per_op_ms(total_ns) -> float:
        return total_ns / n_ops / 1e6

    def rate(name) -> float:
        return nbytes[name] / 1e6 / (excl[name] / 1e9) if excl[name] else 0.0

    out = {}
    for name in CALL_SPANS:
        out[f"{name}.calls"] = calls[name] / n_ops
    for name in SELF_SPANS:
        out[f"{name}.self_ms"] = per_op_ms(share[name])
    out["cli.process_overhead_ms"] = per_op_ms(share["cli.subprocess"])
    out["gft.so3_fft_forward.mb_per_s_computed"] = rate("gft.so3_fft_forward")
    out["gft.so3_fft_inverse.mb_per_s_computed"] = rate("gft.so3_fft_inverse")
    out["gft.imag_residue_max"] = residue
    out["gft.roundtrip_err_max"] = health["roundtrip_err_max"]
    out["harmonics.cached_tables.hit_ratio"] = 1.0 - misses / lookups if lookups else 1.0
    out["harmonics.table_mb_computed"] = nbytes["harmonics.build_tables"] / n_ops / 1e6
    out["signals.crc64.mb_per_s"] = rate("signals.crc64")
    out["signals.read_container.mb"] = nbytes["signals.read_container"] / n_ops / 1e6
    out["signals.write_container.mb"] = nbytes["signals.write_container"] / n_ops / 1e6
    out["parallel.parallel_map.items"] = items / n_ops
    out["parallel.parallel_map.wall_ms"] = per_op_ms(dur["parallel.parallel_map"])
    out["parallel.parallel_map.busy_ratio"] = dur["parallel.item"] / capacity if capacity else 0.0
    out["unattributed_ms"] = per_op_ms(unattributed)
    out["traced_op_mean_ms"] = per_op_ms(sum(end - start for start, end in m.windows))
    out["tracing_overhead"] = m.ops_per_s / untraced_ops_per_s
    return out


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one cold set-up and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args) -> tuple[dict, dict]:
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        start = time.perf_counter()
        wl.setup()
        setup_samples = [time.perf_counter() - start]
        if args.setup_only:
            return {"setup_s": setup_samples[0]}, {}

        for i in range(wl.cycle):  # warm-up: first-call costs stay out of the loop
            wl.op(i, None)

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
        }
        if args.trace:
            # untraced first, then traced; operation numbers run on, so
            # every output stays on disk for the checks
            phase = args.seconds / 2
            untraced = measure(wl, phase, 2)
            rec = Recorder()
            restore = install(rec)
            try:
                m = measure(wl, phase, 2, rec, first_op=len(untraced.windows))
            finally:
                restore()
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            rec.dump(spans_path)
            report["spans"] = str(spans_path.relative_to(ROOT))
            measurements = [untraced, m]
        else:
            m = measure(wl, args.seconds, MIN_OPS)
            peak_rss = wl.peak_rss_mb()
            measurements = [m]

        bad, health = wl.check([out for meas in measurements for out in meas.outputs])
        for meas in measurements:
            bad.update(meas.errors)
        report["health"] = health
        report["failures"] = {str(k): v for k, v in bad.items()}
        attempted = sum(len(meas.windows) for meas in measurements) + wl.extra_checks
        failed = len(bad)
        report["error_rate"] = failed / attempted

        if args.trace:
            metrics = layer_metrics(rec.spans, m, health, untraced.ops_per_s)
            units = {name: unit for name, unit, _ in PER_LAYER}
            lat = m.latencies_s
            self_total = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
            report["additivity_ms"] = {
                "self_ms_sum_plus_unattributed": self_total
                + metrics["cli.process_overhead_ms"]
                + metrics["unattributed_ms"],
                "traced_op_mean": 1e3 * statistics.fmean(lat),
            }
        else:
            setup_samples += [cold_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
            lat = m.latencies_s
            tail_s, tail_pct = tail(lat)
            metrics = {
                "ops_per_s": m.ops_per_s,
                "latency_p50_ms": 1e3 * statistics.median(lat),
                "success_ratio": 1.0 - failed / attempted,
                "peak_rss_mb": peak_rss,
                "setup_s": statistics.median(setup_samples),
            }
            if tail_s is not None:
                metrics["latency_tail_ms"] = 1e3 * tail_s
            metrics = {name: metrics[name] for name, _ in E2E if name in metrics}
            units = dict(E2E)
            report["latency_tail"] = {"percentile": tail_pct, "samples": len(lat)}
            report["latencies_ms"] = [round(1e3 * x, 3) for x in lat]
            report["setup_samples_s"] = setup_samples
        report["operations"] = len(m.windows)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return result, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    if not (SRC / "so3fft" / "__init__.py").is_file():
        print(f"so3fft sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    result, report = run(args)
    if not args.setup_only:
        name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps({"result": result, "report": report}, indent=1))
        print(json.dumps({"report": report}))
    print(json.dumps(result))
    expected = len(PER_LAYER) if args.trace else len(E2E)
    return 0 if args.setup_only or len(result["metrics"]) == expected else 1


if __name__ == "__main__":
    sys.exit(main())
