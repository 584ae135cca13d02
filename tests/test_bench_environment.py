"""Timing records say what they ran under: ``run_bench`` records, and so
``so3fft bench --output``, carry the equivariance records' environment
fields (numpy, its BLAS, the CPUs and the raw thread variables)."""

import json

import numpy as np
import pytest

from so3fft import harness
from so3fft.cli import main
from so3fft.harness import EquivarianceConfig, EquivarianceReport, run_bench

FIELDS = ("numpy", "blas", "cpus", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SO3FFT_THREADS")


@pytest.fixture
def fresh_environment():
    harness._environment.cache_clear()
    yield
    harness._environment.cache_clear()


def equivariance_fields():
    cfg = EquivarianceConfig(bandwidth=2, trials=2, channels=1)
    report = EquivarianceReport(config=cfg, delta=0.5, trial_deltas=(0.4, 0.6), seconds=0.1)
    record = report.to_record()
    return {name: record[name] for name in FIELDS}


@pytest.mark.parametrize("kind", ["s2", "so3"])
def test_every_bench_record_carries_the_environment(fresh_environment, monkeypatch, kind):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("SO3FFT_THREADS", raising=False)
    records = run_bench([1, 2], kind=kind, repetitions=1)
    want = equivariance_fields()
    assert want["numpy"] == np.__version__ and want["OPENBLAS_NUM_THREADS"] == "1"
    assert want["SO3FFT_THREADS"] is None
    assert len(records) == 8
    for record in records:
        assert {name: record[name] for name in FIELDS} == want
        assert record["kind"] == kind and record["seconds"] > 0.0


def test_bench_output_lines_carry_the_environment(fresh_environment, tmp_path, capsys):
    out = tmp_path / "bench.jsonl"
    assert main(["bench", "--kind", "s2", "--bandwidths", "2", "--repetitions", "1",
                 "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "numpy" not in printed  # the table is unchanged
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    want = equivariance_fields()
    assert len(lines) == 4
    assert all({name: line[name] for name in FIELDS} == want for line in lines)
