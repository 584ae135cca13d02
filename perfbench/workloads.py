"""The four benchmark workloads: set-up, one operation, and output checks.

Every workload drives the library through its public functions (looked up
on the ``so3fft`` package at call time, so the traced run's wrappers see
them) or through the ``so3fft`` command in a child process.  Inputs come
from the seed alone.  ``check`` runs after the timed loop and returns the
indices of operations whose outputs were wrong, plus the health numbers.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from tracer import load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINES = ROOT / "tests" / "data" / "baselines.json"

REL_TOL_REFERENCE = 1e-9  # fast path vs direct transforms + plain product
REL_TOL_BASELINE = 1e-9  # drift at seed 0 vs the frozen baseline
ROUNDTRIP_TOL = 1e-10  # CLI inverse output vs the bandlimited input
CHILD_TIMEOUT_S = 60.0


def _rel_max(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def synthetic_digit(rng, size: int = 28) -> np.ndarray:
    """A stroke through a few random points, drawn with a soft pen; values
    in [0, 1] like a normalized MNIST digit."""
    points = rng.uniform(6.0, size - 6.0, size=(int(rng.integers(3, 6)), 2))
    yy, xx = np.mgrid[0:size, 0:size]
    img = np.zeros((size, size))
    for a, b in zip(points[:-1], points[1:]):
        for t in np.linspace(0.0, 1.0, 12):
            cy, cx = a + t * (b - a)
            img = np.maximum(img, np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 2.88))
    return np.clip(img, 0.0, 1.0)


class Workload:
    name = ""
    cycle = 1  # operations per repeating unit; runs end on a unit boundary
    extra_checks = 0  # checks that are attempts of their own, beside the operations

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, rec):
        raise NotImplementedError

    def check(self, outputs: list) -> tuple[dict, dict]:
        """Return (failures keyed by operation index, or by check name for
        the extra checks; health numbers)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# sphere_net: the paper's MNIST-shaped inference path


class SphereNet(Workload):
    name = "sphere_net"
    B_IMAGE, B_S2, B_SO3 = 30, 10, 6
    C_S2, C_SO3 = 20, 40
    IMAGES = 32

    def _raw_banks(self):
        n_in, n_mid = 2 * self.B_IMAGE, 2 * self.B_S2
        raw1 = np.random.default_rng((self.seed, 1)).standard_normal((self.C_S2, n_in, n_in))
        raw2 = np.random.default_rng((self.seed, 2)).standard_normal(
            (self.C_SO3 * self.C_S2, n_mid, n_mid, n_mid)
        )
        return raw1, raw2

    def _so3_bank(self, raw, forward):
        # 800 channels in slices of 100 keeps the set-up's transient memory
        # near the forward pass's own working set
        lib = self.lib
        parts = [forward(lib.SO3Signal(self.B_S2, raw[s : s + 100])) for s in range(0, len(raw), 100)]
        return lib.SO3Spectrum(self.B_S2, np.concatenate([p.data for p in parts]))

    def setup(self) -> None:
        import so3fft as lib

        self.lib = lib
        self.plan1 = lib.make_correlation_plan(self.B_IMAGE, self.B_S2)
        self.plan2 = lib.make_correlation_plan(self.B_S2, self.B_SO3)
        raw1, raw2 = self._raw_banks()
        self.bank1 = lib.s2_fft_forward(lib.S2Signal(self.B_IMAGE, raw1))
        self.bank2 = self._so3_bank(raw2, lib.so3_fft_forward)
        rng = np.random.default_rng((self.seed, 3))
        self.images = [lib.PlanarImage(synthetic_digit(rng)) for _ in range(self.IMAGES)]

    def op(self, i: int, rec):
        lib = self.lib
        s = lib.project_image(self.images[i % self.IMAGES], self.B_IMAGE)
        h = lib.multichannel_correlate(self.bank1, s, self.plan1, out_channels=self.C_S2)
        h = lib.relu_spatial(h)
        h = lib.multichannel_correlate(self.bank2, h, self.plan2, out_channels=self.C_SO3)
        return lib.so3_integrate(lib.relu_spatial(h))

    @staticmethod
    def _product(fs, bank, k_out: int, b_out: int, spectrum_cls):
        """Per-degree spectral product written as plain matrix products."""
        k_in = fs.channels
        out = spectrum_cls.zeros(b_out, k_out)
        for l in range(b_out):
            f_l = fs.blocks(l)
            psi_l = bank.blocks(l).conj().reshape((k_out, k_in) + bank.blocks(l).shape[1:])
            for o in range(k_out):
                if f_l.ndim == 2:  # sphere: sum_k f[k, m] conj(psi[o, k, n])
                    out.blocks(l)[o] = f_l.T @ psi_l[o]
                else:  # rotation group: sum_k f[k] @ conj(psi[o, k]).T
                    out.blocks(l)[o] = sum(f_l[k] @ psi_l[o, k].T for k in range(k_in))
        return out

    def _reference(self, image, bank1, bank2) -> np.ndarray:
        lib = self.lib
        s = lib.project_image(image, self.B_IMAGE)
        c1 = self._product(lib.s2_dft_forward(s), bank1, self.C_S2, self.B_S2, lib.SO3Spectrum)
        h = np.maximum(lib.so3_dft_inverse(c1).samples, 0.0)
        f2 = lib.so3_dft_forward(lib.SO3Signal(self.B_S2, h))
        c2 = self._product(f2, bank2, self.C_SO3, self.B_SO3, lib.SO3Spectrum)
        h = np.maximum(lib.so3_dft_inverse(c2).samples, 0.0)
        return lib.make_so3_grid(self.B_SO3).integrate(h)

    def check(self, outputs):
        lib = self.lib
        bad = {
            i: "missing or non-finite features"
            for i, out in enumerate(outputs)
            if out is None or not np.all(np.isfinite(out))
        }
        raw1, raw2 = self._raw_banks()
        bank1 = lib.s2_dft_forward(lib.S2Signal(self.B_IMAGE, raw1))
        bank2 = self._so3_bank(raw2, lib.so3_dft_forward)
        n = len(outputs)
        worst = 0.0
        for i in sorted({0, n // 2, n - 1}):
            if i in bad:
                continue
            err = _rel_max(outputs[i], self._reference(self.images[i % self.IMAGES], bank1, bank2))
            worst = max(worst, err)
            if err > REL_TOL_REFERENCE:
                bad[i] = f"features differ from the direct path by {err:.3e} (relative)"

        # round trips on this workload's own data: the bandlimited image,
        # and the first layer's (bandlimited) correlation output
        s = lib.s2_fft_inverse(lib.s2_fft_forward(lib.project_image(self.images[0], self.B_IMAGE)))
        y = lib.multichannel_correlate(self.bank1, s, self.plan1, out_channels=self.C_S2)
        roundtrip = max(
            _rel_max(lib.s2_fft_inverse(lib.s2_fft_forward(s)).samples, s.samples),
            _rel_max(lib.so3_fft_inverse(lib.so3_fft_forward(y)).samples, y.samples),
        )
        return bad, {"reference_rel_err_max": worst, "roundtrip_err_max": roundtrip}


# ---------------------------------------------------------------------------
# drift_b16: criterion 5's rotate-vs-apply experiment


class DriftB16(Workload):
    name = "drift_b16"
    BANDWIDTH, LAYERS, TRIALS = 16, 2, 2
    BASELINE_TRIALS = 20

    def setup(self) -> None:
        import so3fft as lib

        self.lib = lib
        lib.cached_tables(self.BANDWIDTH)
        self.extra_checks = int(self.seed == 0)

    def _config(self, seed: int, trials: int):
        return self.lib.EquivarianceConfig(
            bandwidth=self.BANDWIDTH,
            layers=self.LAYERS,
            trials=trials,
            with_relu=True,
            seed=seed,
        )

    def op(self, i: int, rec):
        return self.lib.run_equivariance(self._config(self.seed * 100_000 + i, self.TRIALS)).delta

    def check(self, outputs):
        lib = self.lib
        bad = {
            i: f"delta {d!r} is not finite and positive"
            for i, d in enumerate(outputs)
            if d is None or not (np.isfinite(d) and d > 0.0)
        }
        health = {}
        if self.extra_checks:
            # the frozen criterion-5 value: L=2, 20 trials, seed 0
            want = json.loads(BASELINES.read_text())["relu_drift_b16"][str(self.LAYERS)]
            got = lib.run_equivariance(self._config(0, self.BASELINE_TRIALS)).delta
            health["baseline_rel_err"] = abs(got - want) / want
            if health["baseline_rel_err"] > REL_TOL_BASELINE:
                bad["baseline"] = f"seed-0 delta {got!r} != frozen {want!r}"
        n = 2 * self.BANDWIDTH
        rng = np.random.default_rng((self.seed, 4))
        x = lib.bandlimit_so3(lib.SO3Signal(self.BANDWIDTH, rng.standard_normal((10, n, n, n))))
        health["roundtrip_err_max"] = _rel_max(lib.bandlimit_so3(x).samples, x.samples)
        return bad, health


# ---------------------------------------------------------------------------
# CLI workloads: one `so3fft` process per operation


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, float]:
    """Run one process to completion; return (exit code, peak RSS in MB)."""
    with open(stderr_path, "wb") as err, subprocess.Popen(
        argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
    ) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


UNTRACED_MAIN = "import sys; from so3fft.cli import main; sys.exit(main(sys.argv[1:]))"


class CliWorkload(Workload):
    """Alternates `transform --dir forward` and `--dir inverse` commands."""

    cycle = 2
    kind = ""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.child_rss: list[float] = []

    def cli(self, args: list[str], i, rec) -> int:
        stderr_path = self.workdir / f"stderr-{i}.txt"
        if rec is None:
            argv = [sys.executable, "-c", UNTRACED_MAIN, *args]
            rc, rss = run_child(argv, stderr_path)
        else:
            spans_path = self.workdir / f"spans-{i}.jsonl"
            with rec.span("cli.subprocess"):
                parent, op = rec.context()
                argv = [sys.executable, str(HERE / "child.py"), str(spans_path), json.dumps([op, parent]), *args]
                rc, rss = run_child(argv, stderr_path)
            if spans_path.exists():
                rec.spans.extend(load_spans(spans_path))
                spans_path.unlink()
        self.child_rss.append(rss)
        return rc

    def op(self, i: int, rec):
        spec = self.workdir / f"spec-{i - i % 2}.ssf"
        if i % 2 == 0:
            direction, src, target = "forward", self.input_path, spec
        else:
            direction, src, target = "inverse", spec, self.workdir / f"out-{i}.ssf"
        args = ["transform", "--kind", self.kind, "--dir", direction, "--input", str(src), "--output", str(target)]
        return {"rc": self.cli(args, i, rec), "output": target}

    def bandlimit(self, signal):
        raise NotImplementedError

    def expected(self):
        """The signal every inverse command must reproduce."""
        raise NotImplementedError

    def check(self, outputs):
        lib = self.lib
        want = self.expected()
        # one more in-process round trip, so the health number is a real
        # round trip even where the input itself was not bandlimited
        worst = _rel_max(self.bandlimit(want).samples, want.samples)
        bad = {}
        for i, out in enumerate(outputs):
            if out is None or out["rc"] != 0:
                detail = "" if out is None else (self.workdir / f"stderr-{i}.txt").read_text()[-300:]
                bad[i] = f"exit code {None if out is None else out['rc']}: {detail}"
                continue
            try:
                obj = lib.read_container(out["output"])
            except lib.ContainerError as exc:
                bad[i] = f"output does not read back: {exc}"
                continue
            if i % 2 == 1:
                err = _rel_max(obj.samples, want.samples)
                worst = max(worst, err)
                if err > ROUNDTRIP_TOL:
                    bad[i] = f"inverse output differs from the bandlimited input by {err:.3e}"
        return bad, {"roundtrip_err_max": worst}

    def peak_rss_mb(self) -> float:
        return max(self.child_rss)


class CliSo3B32(CliWorkload):
    name = "cli_so3_b32"
    kind = "so3"
    BANDWIDTH, CHANNELS = 32, 1

    def setup(self) -> None:
        import so3fft as lib

        self.lib = lib
        n = 2 * self.BANDWIDTH
        rng = np.random.default_rng((self.seed, 5))
        raw = lib.SO3Signal(self.BANDWIDTH, rng.standard_normal((self.CHANNELS, n, n, n)))
        self.signal = lib.bandlimit_so3(raw)
        self.input_path = self.workdir / "input.so3.ssf"
        lib.write_container(self.input_path, self.signal)

    def bandlimit(self, signal):
        return self.lib.bandlimit_so3(signal)

    def expected(self):
        return self.signal


class CliS2B64(CliWorkload):
    name = "cli_s2_b64"
    kind = "s2"
    BANDWIDTH = 64

    def setup(self) -> None:
        import so3fft as lib

        self.lib = lib
        img = synthetic_digit(np.random.default_rng((self.seed, 6)))
        pgm = self.workdir / "digit.pgm"
        pgm.write_bytes(b"P5\n28 28\n255\n" + np.round(img * 255).astype(np.uint8).tobytes())
        self.input_path = self.workdir / "digit.s2.ssf"
        args = ["project-image", "--image", str(pgm), "--bandwidth", str(self.BANDWIDTH), "--output", str(self.input_path)]
        rc, _ = run_child([sys.executable, "-c", UNTRACED_MAIN, *args], self.workdir / "stderr-setup.txt")
        if rc != 0:
            raise RuntimeError("project-image failed during set-up")

    def bandlimit(self, signal):
        return self.lib.bandlimit_s2(signal)

    def expected(self):
        # forward then inverse is the projection onto degrees < b
        return self.bandlimit(self.lib.read_container(self.input_path))


WORKLOADS = {w.name: w for w in (SphereNet, DriftB16, CliSo3B32, CliS2B64)}

