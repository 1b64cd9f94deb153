"""§7.1.3: model maturation quickness.

Paper: median 100 invocations (11/19 functions mature at the first
check), 75 % under 250, 95 % under 450.
"""

import pytest

from benchmarks.conftest import draw
from repro.workloads.functions import ALL_FUNCTIONS, EVALUATION_FUNCTIONS
from tests.bench.test_pretrain_oracle import (
    assert_same_state,
    fresh_input_draws,
    ingest,
    N_SAMPLES,
    per_record_loop,
)


def test_maturation_quickness(benchmark):
    result = draw(benchmark, "maturation_quickness")
    assert result.median <= 150
    assert result.p75 <= 300
    assert result.matured_at_first_check >= 8
    matured = [v for v in result.per_function.values() if v is not None]
    assert len(matured) >= 16  # nearly every function matures


#: Where the artifact's streams take their longest (None: never, in 500).
LATE = {"wand_resize": 400, "wand_rotate": 250, "wand_blur": None}


@pytest.mark.parametrize(
    "seed,name", list(enumerate(EVALUATION_FUNCTIONS)), ids=EVALUATION_FUNCTIONS
)
def test_ingest_matches_the_per_record_loop_on_fresh_inputs(seed, name):
    """``tests/bench/test_pretrain_oracle.py``'s oracle on the streams
    this artifact draws (a fresh input per invocation, seed = function
    index), where models stay immature for hundreds of samples: ~1 min
    for all 19 functions, most of it in the per-record loop."""
    model = ALL_FUNCTIONS[name]
    oracle = per_record_loop(model, fresh_input_draws(model, seed))
    for n in N_SAMPLES:
        got = ingest(model, fresh_input_draws(model, seed), n)
        assert_same_state(got, oracle[n][0])
    if name in LATE:
        assert oracle[500][0].matured_after == LATE[name]
