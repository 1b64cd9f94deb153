"""§7.1.3: model maturation quickness.

Paper: median 100 invocations (11/19 functions mature at the first
check), 75 % under 250, 95 % under 450.
"""

from benchmarks.conftest import draw


def test_maturation_quickness(benchmark):
    result = draw(benchmark, "maturation_quickness")
    assert result.median <= 150
    assert result.p75 <= 300
    assert result.matured_at_first_check >= 8
    matured = [v for v in result.per_function.values() if v is not None]
    assert len(matured) >= 16  # nearly every function matures
