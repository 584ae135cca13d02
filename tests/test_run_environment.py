"""Harness records say under what they ran: the numpy version, numpy's BLAS
build (name and version, no paths), the CPUs the process may use and the
raw thread variables, read once per process and carried by the JSONL and
CSV writers."""

import csv
import json
import os

import numpy as np
import pytest

from so3fft import harness
from so3fft.harness import (
    EquivarianceConfig,
    EquivarianceReport,
    write_reports_csv,
    write_reports_jsonl,
)

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SO3FFT_THREADS")
FIELDS = ("numpy", "blas", "cpus") + THREAD_VARIABLES


@pytest.fixture
def fresh_environment():
    harness._environment.cache_clear()
    yield
    harness._environment.cache_clear()


def report():
    cfg = EquivarianceConfig(bandwidth=2, trials=2, channels=1)
    return EquivarianceReport(config=cfg, delta=0.5, trial_deltas=(0.4, 0.6), seconds=0.1)


def test_record_names_numpy_blas_and_cpus(fresh_environment):
    record = report().to_record()
    assert set(FIELDS) <= set(record)
    assert record["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert record["blas"] == f"{blas['name']} {blas['version']}"
    assert "/" not in record["blas"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert record["cpus"] == cpus


def test_thread_variables_are_raw_values_or_null(fresh_environment, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("SO3FFT_THREADS", " 2x")  # recorded as given, not parsed
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    record = report().to_record()
    assert record["OPENBLAS_NUM_THREADS"] == "1"
    assert record["SO3FFT_THREADS"] == " 2x"
    assert record["OMP_NUM_THREADS"] is None


def test_fields_are_read_once_per_process(fresh_environment, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    first = report().to_record()
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    assert report().to_record()["OMP_NUM_THREADS"] == first["OMP_NUM_THREADS"] == "3"


def test_a_build_without_a_blas_version_records_no_blas(fresh_environment, monkeypatch):
    config = np.show_config(mode="dicts")
    blas = dict(config["Build Dependencies"]["blas"])
    del blas["version"]
    stripped = {**config, "Build Dependencies": {**config["Build Dependencies"], "blas": blas}}
    monkeypatch.setattr(np, "show_config", lambda mode="stdout": stripped)
    record = report().to_record()
    assert record["blas"] is None
    assert record["numpy"] == np.__version__


def test_writers_carry_the_fields(fresh_environment, monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("SO3FFT_THREADS", raising=False)
    want = report().to_record()
    write_reports_jsonl([report()], tmp_path / "r.jsonl")
    line = json.loads((tmp_path / "r.jsonl").read_text())
    assert {k: line[k] for k in FIELDS} == {k: want[k] for k in FIELDS}
    write_reports_csv([report()], tmp_path / "r.csv")
    with open(tmp_path / "r.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["numpy"] == np.__version__
    assert row["cpus"] == str(want["cpus"])
    assert row["OPENBLAS_NUM_THREADS"] == "4"
    assert row["SO3FFT_THREADS"] == ""
