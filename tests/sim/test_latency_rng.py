"""Unit tests for latency models, the calibration table and RNG streams."""

import ast
import dataclasses
import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sim import latency, LatencyModel, RngRegistry
from repro.sim.latency import GB, LatencyProfile, MB, MIGRATION

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def table():
    """name -> constant, for every model and profile the calibration
    table (:mod:`repro.sim.latency`) defines, in definition order."""
    return {
        name: value
        for name, value in vars(latency).items()
        if isinstance(value, (LatencyModel, LatencyProfile))
    }


def table_models():
    """(row name, model) for every model in the table: a profile gives
    one row per operation (``SWIFT_PROFILE.read``, ...)."""
    rows = []
    for name, value in table().items():
        if isinstance(value, LatencyProfile):
            rows += [
                (f"{name}.{f.name}", getattr(value, f.name))
                for f in dataclasses.fields(value)
            ]
        else:
            rows.append((name, value))
    return rows


def declared_sigmas():
    """Every jitter σ the calibration table declares."""
    return sorted({model.jitter for _, model in table_models() if model.jitter})


def test_no_latency_is_defined_outside_the_table():
    # A module may import a constant from the table, never build one.
    defined = list(table().values()) + [model for _, model in table_models()]
    strays = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, (LatencyModel, LatencyProfile)) and not any(
                value is constant for constant in defined
            ):
                strays.append(f"{info.name}.{name}")
    assert strays == []


def test_every_table_constant_is_named_outside_the_table():
    # A constant nothing names is dead calibration: delete it.
    table_path = Path(latency.__file__).resolve()
    named = set()
    for path in Path(repro.__file__).resolve().parent.rglob("*.py"):
        if path == table_path:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert [name for name in table() if name not in named] == []


def design_calibration_rows():
    """(constant, base_s, bandwidth_bps, σ, source) per row of
    DESIGN.md's Calibration table."""
    lines = DESIGN.read_text(encoding="utf-8").splitlines()
    start = lines.index("### Calibration")
    units = {"MB/s": MB, "GB/s": GB}
    rows = []
    for line in lines[start + 1:]:
        if rows and not line.startswith("|"):
            break
        if not line.startswith("| `"):
            continue  # prose, the header row, the separator
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        name, base, bandwidth, sigma, source = cells
        match = re.fullmatch(r"([\d.]+) ([MG]B/s)", bandwidth)
        rows.append(
            (
                name.strip("`"),
                float(base.strip("`")),
                float(match[1]) * units[match[2]] if match else None,
                float(sigma),
                source,
            )
        )
    return rows


def test_design_calibration_table_is_the_module_table():
    documented = design_calibration_rows()
    assert [row[:4] for row in documented] == [
        (name, model.base_s, model.bandwidth_bps, model.jitter)
        for name, model in table_models()
    ]
    assert all(row[4] for row in documented)


@pytest.mark.parametrize("sigma", declared_sigmas())
def test_exp_of_scaled_standard_normal_is_numpy_lognormal(sigma):
    # LatencyModel.sample computes Generator.lognormal(0, σ) as
    # math.exp(σ·z) from one standard normal z: bit for bit.
    n = 200_000
    normals = np.random.default_rng(17).standard_normal(n).tolist()
    lognormals = np.random.default_rng(17).lognormal(0.0, sigma, n).tolist()
    assert [math.exp(sigma * z) for z in normals] == lognormals


def test_mean_without_bandwidth():
    model = LatencyModel(base_s=0.01)
    assert model.mean(10**9) == 0.01


def test_mean_with_bandwidth():
    model = LatencyModel(base_s=0.0, bandwidth_bps=100.0)
    assert model.mean(50) == pytest.approx(0.5)


def test_sample_without_jitter_is_deterministic():
    model = LatencyModel(base_s=0.01, bandwidth_bps=1e6)
    rng = np.random.default_rng(0)
    assert model.sample(rng, 1000) == model.mean(1000)


def test_sample_with_jitter_varies_but_is_bounded():
    model = LatencyModel(base_s=0.01, jitter=0.5)
    rng = np.random.default_rng(0)
    draws = [model.sample(rng) for _ in range(200)]
    assert len(set(draws)) > 100
    assert all(0.01 / 3.001 <= d <= 0.01 * 3.001 for d in draws)


def test_sample_with_none_rng_is_mean():
    model = LatencyModel(base_s=0.02, jitter=0.5)
    assert model.sample(None) == 0.02


def test_migration_calibration_matches_paper():
    # Paper (7.2.1): 0.18 ms @ 8 MB, 1.2 ms @ 64 MB, 13.5 ms @ 1 GB.
    assert MIGRATION.mean(8 * MB) == pytest.approx(0.18e-3, rel=0.35)
    assert MIGRATION.mean(64 * MB) == pytest.approx(1.2e-3, rel=0.35)
    assert MIGRATION.mean(1 * GB) == pytest.approx(13.5e-3, rel=0.35)


def test_rng_streams_are_reproducible():
    a = RngRegistry(seed=7).batched_stream("swift")
    b = RngRegistry(seed=7).batched_stream("swift")
    assert a.standard_normal() == b.standard_normal()


def test_rng_streams_differ_by_name():
    reg = RngRegistry(seed=7)
    assert (
        reg.batched_stream("a").standard_normal()
        != reg.batched_stream("b").standard_normal()
    )


def test_rng_streams_differ_by_seed():
    a = RngRegistry(seed=1).batched_stream("x")
    b = RngRegistry(seed=2).batched_stream("x")
    assert a.standard_normal() != b.standard_normal()


def test_rng_stream_is_cached():
    reg = RngRegistry(seed=1)
    assert reg.batched_stream("x") is reg.batched_stream("x")
