"""Smoke and shape tests for the experiment drivers themselves."""

import numpy as np
import pytest

from repro.bench import model_cache
from repro.bench.datasets import (
    all_function_datasets,
    benefit_dataset,
    function_dataset,
)
from repro.bench.envs import (
    build_ofc_env,
    build_owk_redis_env,
    build_owk_swift_env,
    pretrain_function,
)
from repro.bench.fig2 import run_fig2
from repro.bench.macro import run_macro
from repro.bench import maturation
from repro.bench.maturation import FIRST_CHECK, run_maturation
from repro.bench.reporting import format_table, improvement_pct
from repro.core import trainer
from repro.core.trainer import RETRAIN_EVERY
from repro.sim.latency import KB, REDIS_PROFILE, SWIFT_PROFILE
from repro.workloads.faasload import TenantProfile
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus


def test_env_builders_produce_ready_deployments():
    for builder in (build_owk_swift_env, build_owk_redis_env):
        env = builder(nodes=2, node_mb=1024, seed=1)
        assert len(env.platform.invokers) == 2
        assert env.store.has_bucket("inputs")
        assert env.store.has_bucket("outputs")
    ofc = build_ofc_env(nodes=2, node_mb=1024, seed=1)
    assert len(ofc.agents) == 2
    assert ofc.cluster.total_capacity > 0  # agents already harvested


def test_env_builders_use_correct_profiles():
    swift = build_owk_swift_env(seed=0)
    redis = build_owk_redis_env(seed=0)
    assert swift.store.profile is SWIFT_PROFILE
    assert redis.store.profile is REDIS_PROFILE
    assert swift.store.profile.read.base_s > 50 * redis.store.profile.read.base_s


def test_pretrain_function_matures_model():
    ofc = build_ofc_env(nodes=2, node_mb=4096, seed=2)
    model = get_function_model("wand_sepia")
    ofc.platform.register_function(model.spec(tenant="t0"))
    corpus = MediaCorpus(np.random.default_rng(0))
    descriptors = [corpus.image(64 * KB) for _ in range(4)]
    pretrain_function(ofc, model, descriptors, tenant="t0")
    models = ofc.trainer.models_for("t0/wand_sepia")
    assert models.mature
    assert models.memory_model is not None
    assert models.benefit_model is not None


@pytest.mark.parametrize(
    "min_history,first_check,at_first", [(50, 50, 0), (110, 125, 1)]
)
def test_maturation_counts_first_checks_under_its_own_config(
    monkeypatch, min_history, first_check, at_first
):
    # The first check is the first retrain point (every 25) at or past
    # the trainer's MIN_HISTORY_FOR_MATURITY: with the threshold moved,
    # the trainer grants maturity at the moved check and the driver
    # counts the functions that matured there.
    assert -(-min_history // RETRAIN_EVERY) * RETRAIN_EVERY == first_check
    monkeypatch.setattr(trainer, "MIN_HISTORY_FOR_MATURITY", min_history)
    monkeypatch.setattr(maturation, "FIRST_CHECK", first_check)
    result = run_maturation(
        150,
        functions=["wand_sepia", "wand_flip", "wand_contrast", "speech_recognize"],
    )
    matured = list(result.per_function.values())
    assert matured.count(first_check) == result.matured_at_first_check == at_first


def test_maturation_counts_the_first_check():
    # The first check is the first retrain point (every 25) at or past
    # MIN_HISTORY_FOR_MATURITY (100): three of these four mature there,
    # speech_recognize two retrain points later, at the budget.
    result = run_maturation(
        150,
        functions=["wand_sepia", "wand_flip", "wand_contrast", "speech_recognize"],
    )
    matured = list(result.per_function.values())
    assert FIRST_CHECK == 100
    assert matured.count(FIRST_CHECK) == result.matured_at_first_check == 3
    assert matured.count(150) == 1


def test_macro_does_not_depend_on_what_ran_before():
    # Request ids are process-global and seed the hidden footprint
    # noise: a deployment built after other invocations ran must still
    # see the ids a fresh process would.
    def table2():
        model_cache.clear()
        return run_macro("ofc", TenantProfile.NORMAL, duration_s=300.0).table2

    first = table2()
    for duration_s in (10.0, 60.0, 120.0, 300.0):
        run_macro("swift", TenantProfile.NORMAL, duration_s=duration_s)
        assert table2() == first, duration_s


def test_function_dataset_shape_and_labels():
    model = get_function_model("wand_blur")
    dataset = function_dataset(model, n=50, seed=0, interval_mb=16.0)
    assert len(dataset) == 50
    assert all(0 <= label < 128 for label in dataset.labels)
    assert "pixels" in dataset.feature_names
    assert "arg_sigma" in dataset.feature_names


def test_function_datasets_are_reproducible():
    model = get_function_model("wand_sepia")
    a = function_dataset(model, n=30, seed=5)
    b = function_dataset(model, n=30, seed=5)
    assert list(a.labels) == list(b.labels)
    assert a.rows == b.rows


def test_all_function_datasets_covers_19():
    datasets = all_function_datasets(n=10)
    assert len(datasets) == 19


def test_benefit_dataset_labels_are_binary():
    model = get_function_model("wand_edge")
    dataset = benefit_dataset(model, n=60, seed=0)
    assert set(int(label) for label in dataset.labels) <= {0, 1}


def test_fig2_scatter_sizes():
    result = run_fig2(n=80, seed=1)
    assert len(result.by_size) == 80
    assert len(result.by_sigma) == 80
    assert result.spread_at_fixed_size_mb >= 0


def test_format_table_alignment():
    text = format_table(
        ["name", "value"], [("a", 1.2345), ("long-name", 100.0)], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    # All data lines padded to the same width.
    assert len(set(len(line) for line in lines[2:])) <= 2


def test_improvement_pct():
    assert improvement_pct(100.0, 40.0) == pytest.approx(60.0)
    assert improvement_pct(0.0, 40.0) == 0.0
    assert improvement_pct(50.0, 75.0) == pytest.approx(-50.0)


def test_cli_list_and_unknown():
    from repro.cli import main

    assert main(["list"]) == 0
    assert main(["does-not-exist"]) == 2


def test_cli_runs_quick_experiment(capsys):
    from repro.cli import main

    assert main(["fig2", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
