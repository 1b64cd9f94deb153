"""The hidden footprint noise is the ``default_rng`` form, bit for bit.

:func:`truth_noise` derives the PCG64 states of whole blocks of request
ids (``SeedSequence`` and PCG64's seeding re-done with numpy uint32
arithmetic) and keeps a few blocks.  Its definition is the per-request
generator it replaces, :func:`oracle`; these tests hold it there across
block boundaries, out-of-order and repeated ids, interleaved seeds and
the entropy edge cases of the seeding step.
"""

import hashlib

import numpy as np
import pytest

from repro.workloads import functions
from repro.workloads.functions import apply_noise, noisy, truth_noise

BLOCK = functions._NOISE_BLOCK
WINDOW = functions._NOISE_WINDOW


def entropy(seed, request_id):
    digest = hashlib.sha256(f"{seed}:{request_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def oracle(seed, request_id):
    generator = np.random.default_rng(entropy(seed, request_id))
    return tuple(generator.standard_normal(2).tolist())


@pytest.fixture(autouse=True)
def empty_window():
    functions._blocks.clear()
    yield
    functions._blocks.clear()


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_three_blocks_and_their_boundaries(seed):
    ids = list(range(3 * BLOCK + 2))
    ids += [k * BLOCK + d for k in (37, 1000, 123457) for d in (-1, 0, 1)]
    for request_id in ids:
        assert truth_noise(seed, request_id) == oracle(seed, request_id), request_id


def test_values_are_python_floats():
    assert all(type(z) is float for z in truth_noise(0, 12))


def test_ids_out_of_order():
    ids = list(range(2 * WINDOW * BLOCK))
    np.random.default_rng(3).shuffle(ids)
    for request_id in ids[:3000]:
        assert truth_noise(7, request_id) == oracle(7, request_id), request_id


def test_id_repeated_after_the_window_moved_on():
    # An OOM retry re-runs the body with the same request id.
    first = truth_noise(0, 5)
    for block in range(1, WINDOW + 2):
        truth_noise(0, block * BLOCK + 5)
    assert (0, 0) not in functions._blocks
    assert truth_noise(0, 5) == first == oracle(0, 5)
    assert len(functions._blocks) == WINDOW


def test_interleaved_truth_seeds():
    for request_id in range(BLOCK - 40, 2 * BLOCK + 40):
        for seed in (0, 42):
            assert truth_noise(seed, request_id) == oracle(seed, request_id)


def test_seeding_step_matches_numpy():
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    drawn = np.random.default_rng(11).integers(0, 2**64, 2000, dtype=np.uint64)
    values = edges + drawn.tolist()
    derived = functions._seed_states(np.array(values, dtype=np.uint64))
    for value, state in zip(values, derived):
        reference = np.random.PCG64(np.random.SeedSequence(value)).state["state"]
        assert state == (reference["state"], reference["inc"]), value


def test_body_noise_is_the_generator_noise():
    # What a deployed body computes equals drawing the pair from the
    # per-request generator, the form offline callers use.
    for request_id in (0, 1, 999, 4096):
        generator = np.random.default_rng(entropy(0, request_id))
        assert apply_noise(140.0, truth_noise(0, request_id)) == noisy(
            140.0, generator
        )
