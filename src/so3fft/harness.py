"""Equivariance-error experiment and fast-vs-direct timing harness.

The experiment builds a stack of rotation-group correlation layers with
seeded random bandlimited filters, pushes random grid draws through it
(the first analysis that reads a draw projects it onto the bandlimit),
and measures how far "rotate then apply" drifts from "apply then rotate":

    delta = mean_i  std(L_{R_i} Phi(f_i) - Phi(L_{R_i} f_i)) / std(Phi(f_i))

With linear layers and everything bandlimited this is roundoff; with a
pointwise ReLU in the stack the aliasing it introduces makes delta a real
number worth tracking as a regression baseline.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from functools import cache

import numpy as np

from ._parallel import THREADS_ENV, blas_threads, parallel_map, resolve_threads
from .correlation import (
    _arrange,
    make_correlation_plan,
    multichannel_correlate,
    relu_spatial,
    rotate_so3_spectral,
)
from .gft import (
    _KIND_TYPES,
    _TRANSFORMS,
    SO3Signal,
    so3_coefficient_count,
    so3_fft_forward,
)
from .grids import _checked_int, random_rotation, validate_bandwidth
from .harmonics import _check_cap, _stack_bytes, cached_tables, estimate_table_bytes
from .oracle import _CHUNK, rotate_so3_by_resampling

__all__ = [
    "DIRECT_BENCH_CAPS",
    "HARNESS_MEMORY_CAP",
    "EquivarianceConfig",
    "EquivarianceReport",
    "config_digest",
    "estimate_run_bytes",
    "run_bench",
    "run_equivariance",
    "write_records_jsonl",
    "write_reports_csv",
    "write_reports_jsonl",
]

HARNESS_MEMORY_CAP = 4 << 30
DIRECT_BENCH_CAPS = {"s2": 64, "so3": 32}

_ROTATION_SOURCES = ("spectral", "resampling")
_STD_FLOOR = 1e-30


@dataclass(frozen=True)
class EquivarianceConfig:
    bandwidth: int
    layers: int = 1
    channels: int = 10
    trials: int = 20
    with_relu: bool = False
    rotation_source: str = "spectral"
    seed: int = 0
    # diagnostic mode: all-zero inputs exercise the std(Phi(f)) = 0 guard
    zero_inputs: bool = False

    def __post_init__(self) -> None:
        counts = (("bandwidth", 1), ("layers", 1), ("channels", 1), ("trials", 1), ("seed", 0))
        for name, low in counts:  # stored as ints, numpy integers included
            object.__setattr__(self, name, _checked_int(getattr(self, name), name, low))
        for name in ("with_relu", "zero_inputs"):  # stored as bools, numpy's included
            if not isinstance(value := getattr(self, name), (bool, np.bool_)):
                raise TypeError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        if self.rotation_source not in _ROTATION_SOURCES:
            raise ValueError(
                f"rotation_source must be one of {_ROTATION_SOURCES}, "
                f"got {self.rotation_source!r}"
            )


def config_digest(config: EquivarianceConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class EquivarianceReport:
    config: EquivarianceConfig
    delta: float
    trial_deltas: tuple[float, ...]
    seconds: float
    workers: int | None = None  # the resolved worker count
    blas_threads: int | None = None  # BLAS threads of the trials; None: no setter
    delta_p50: float = field(init=False)
    delta_p95: float = field(init=False)

    def __post_init__(self) -> None:
        self.delta_p50 = float(np.percentile(self.trial_deltas, 50))
        self.delta_p95 = float(np.percentile(self.trial_deltas, 95))

    def to_record(self) -> dict:
        cfg = self.config
        return {
            "config_hash": config_digest(cfg),
            "bandwidth": cfg.bandwidth,
            "layers": cfg.layers,
            "channels": cfg.channels,
            "trials": cfg.trials,
            "relu": cfg.with_relu,
            "rotation": cfg.rotation_source,
            "seed": cfg.seed,
            "delta": self.delta,
            "delta_p50": self.delta_p50,
            "delta_p95": self.delta_p95,
            "seconds": self.seconds,
            "workers": self.workers,
            "blas_threads": self.blas_threads,
            **_environment(),
        }


@cache
def _environment() -> dict:
    """What the process runs under, read once: the numpy version, the BLAS
    numpy was built against (name and version), the CPUs it may use and the
    raw thread variables (None when unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except KeyError:  # a build whose config names no BLAS or no version
        blas = None
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", THREADS_ENV)
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpus": resolve_threads(0),  # the CPUs this process may run on
        **{name: os.environ.get(name) for name in threads},
    }


def estimate_run_bytes(config: EquivarianceConfig) -> int:
    """Rough peak-memory estimate for run_equivariance at the default
    worker count, checked up front."""
    return _run_bytes(config, resolve_threads(None))


def _run_bytes(config: EquivarianceConfig, workers: int) -> int:
    n = 2 * config.bandwidth
    k = config.channels
    tables = estimate_table_bytes(config.bandwidth)
    banks = config.layers * k * k * so3_coefficient_count(config.bandwidth) * 16
    # the bank is transformed k filters (one output channel) at a time,
    # once, before the trials start
    build = 3 * k * n**3 * 16
    # each trial in flight keeps a handful of K-channel grids alive at once;
    # traced peaks grow by 50-60 bytes per k n^3 a trial, so 8 real copies.
    # A resampling rotation holds one wigner_D_stack chunk at a time; with its
    # analysis and sums beside it, traced peaks fit 3/2 chunks (one was short)
    resample = 3 * _stack_bytes(config.bandwidth - 1, True, _CHUNK, True) // 2
    trial = 8 * k * n**3 * 8 + resample * (config.rotation_source == "resampling")
    return tables + banks + build + min(workers, config.trials) * trial


def _filter_banks(config: EquivarianceConfig) -> list:
    """The layers' prepared banks, each drawn and transformed one output
    channel (k filters) at a time: the draws are those of one (k*k, ...)
    draw, the working set that of a k-channel transform.  Each degree is
    flattened to unit RMS: the transform of white grid noise is colored, and
    without this every layer low-passes the stack a little more, which drags
    the ReLU drift DOWN with depth instead of keeping it flat."""
    b, k = config.bandwidth, config.channels
    rng, tables = np.random.default_rng((config.seed, 0, 0)), cached_tables(b)
    draw = (k,) + (2 * b,) * 3  # one output channel's k filters
    banks = []
    for _ in range(config.layers):
        parts = (so3_fft_forward(SO3Signal(b, rng.standard_normal(draw)), tables) for _ in range(k))
        banks.append(_arrange(parts, k, k, b, lambda blk: np.sqrt(np.mean(abs(blk) ** 2)) or 1.0))
    return banks


def run_equivariance(
    config: EquivarianceConfig, threads: int | None = None
) -> EquivarianceReport:
    """Run the rotate-vs-apply experiment; deterministic for a given seed."""
    workers = resolve_threads(threads)
    _check_cap(_run_bytes(config, workers), "equivariance trials in flight", HARNESS_MEMORY_CAP)

    b = config.bandwidth
    k = config.channels
    n = 2 * b
    plan = make_correlation_plan(b)
    banks = _filter_banks(config)

    spectral = config.rotation_source == "spectral"
    rotate = rotate_so3_spectral if spectral else rotate_so3_by_resampling

    def pipeline(sig: SO3Signal) -> SO3Signal:
        for bank in banks:
            sig = multichannel_correlate(bank, sig, plan, out_channels=k)
            if config.with_relu:
                sig = relu_spatial(sig)
        return sig

    def one_trial(i: int) -> float:
        rng = np.random.default_rng((config.seed, 1, i))
        raw = (
            np.zeros((k, n, n, n))
            if config.zero_inputs
            else rng.standard_normal((k, n, n, n))
        )
        f = SO3Signal(b, raw)  # unprojected: every consumer analyses f first
        rot = random_rotation(rng)
        applied = pipeline(f)
        applied_after_rotate = pipeline(rotate(f, rot))
        rotated_after_apply = rotate(applied, rot)
        denom = float(np.std(applied.samples))
        if denom < _STD_FLOOR:
            return 0.0
        err = np.std(rotated_after_apply.samples - applied_after_rotate.samples)
        return float(err) / denom

    start = time.perf_counter()
    deltas = parallel_map(one_trial, range(config.trials), workers)
    seconds = time.perf_counter() - start
    return EquivarianceReport(
        config=config,
        delta=float(np.mean(deltas)),
        trial_deltas=tuple(deltas),
        seconds=seconds,
        workers=workers,
        blas_threads=blas_threads(),
    )


def write_records_jsonl(records, path) -> None:
    """One JSON object per line, keys sorted: the harness's report format,
    also used for :func:`run_bench` records."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def write_reports_jsonl(reports, path) -> None:
    """One JSON record per line, one line per report."""
    write_records_jsonl((report.to_record() for report in reports), path)


def write_reports_csv(reports, path) -> None:
    """Flat plot-ready table, one row per report."""
    records = [report.to_record() for report in reports]
    if not records:
        raise ValueError("no reports to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)


def _median_seconds(fn, repetitions: int) -> float:
    fn()  # warmup, outside the clock
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def run_bench(bandwidths, kind: str = "so3", repetitions: int = 5) -> list[dict]:
    """Median wall-clock of fast vs. dense-direct transform paths.

    The direct path is skipped (with a note) above its cost cap so a sweep
    over large bandwidths stays bounded.  Each record says what it ran under
    (:func:`_environment`: numpy, its BLAS, the CPUs, the thread variables).
    """
    if kind not in DIRECT_BENCH_CAPS:
        raise ValueError(f"kind must be 's2' or 'so3', got {kind!r}")
    repetitions = _checked_int(repetitions, "repetitions", 1)

    cap = DIRECT_BENCH_CAPS[kind]
    signal_cls = _KIND_TYPES[kind][0]
    records = []
    for b in bandwidths:
        validate_bandwidth(b)
        tables = cached_tables(b, "zero" if kind == "s2" else "all")
        rng = np.random.default_rng((2718, b))
        sig = signal_cls(b, rng.standard_normal((1,) + (2 * b,) * signal_cls._axes))
        spec = _TRANSFORMS[(kind, "forward", "fast")](sig, tables)
        for path in ("fast", "direct"):
            for op, arg in (("forward", sig), ("inverse", spec)):
                record = {
                    "kind": kind,
                    "bandwidth": b,
                    "op": op,
                    "path": path,
                    "repetitions": repetitions,
                    **_environment(),
                }
                if path == "direct" and b > cap:
                    record["seconds"] = None
                    record["note"] = f"skipped: direct path capped at bandwidth {cap}"
                else:
                    fn = _TRANSFORMS[(kind, op, path)]
                    record["seconds"] = _median_seconds(lambda: fn(arg, tables), repetitions)
                records.append(record)
    return records
