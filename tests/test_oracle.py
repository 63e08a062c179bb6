"""Exhaustive-search reference values on hand-checkable instances."""

import random

import pytest

from commroute.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from commroute.oracle import (
    IMPLEMENTATION,
    SizeLimitError,
    oracle_min_steps,
    oracle_min_swaps,
    oracle_min_swaps_at,
    search_impl,
)
from commroute.solutions import TmpInstance

from conftest import random_connected_graph


def test_zero_when_algorithm_embeds():
    inst = TmpInstance(path_graph(4), path_graph(4))
    assert oracle_min_steps(inst) == 0
    assert oracle_min_swaps(inst) == 0


def test_p3_complete():
    # two path edges hold at start, one swap meets the remaining pair
    inst = TmpInstance(path_graph(3), complete_graph(3))
    assert oracle_min_steps(inst) == 1
    assert oracle_min_swaps(inst) == 1
    assert oracle_min_swaps_at(inst, 0) is None
    assert oracle_min_swaps_at(inst, 1) == 1


def test_p4_complete():
    inst = TmpInstance(path_graph(4), complete_graph(4))
    assert oracle_min_steps(inst) == 2
    assert oracle_min_swaps_at(inst, 1) is None


def test_star_hardware_complete():
    inst = TmpInstance(star_graph(4), complete_graph(4))
    assert oracle_min_steps(inst) == 2


def test_example_instance_values():
    inst = TmpInstance(path_graph(6), star_graph(6))
    assert oracle_min_steps(inst) == 2
    assert oracle_min_swaps_at(inst, 2) == 4
    assert oracle_min_swaps_at(inst, 3) == 3
    assert oracle_min_swaps(inst) == 3


def test_min_swaps_at_is_monotone():
    rng = random.Random(5)
    for _ in range(10):
        inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
        mt = oracle_min_steps(inst)
        values = [oracle_min_swaps_at(inst, t) for t in range(mt, mt + 3)]
        assert all(v is not None for v in values)
        assert values[0] >= values[1] >= values[2]
        assert oracle_min_swaps(inst) == min(values[2], oracle_min_swaps(inst))


def test_min_swaps_needs_no_horizon():
    rng = random.Random(9)
    for _ in range(8):
        inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
        ms = oracle_min_swaps(inst)
        mt = oracle_min_steps(inst)
        assert mt <= ms
        # at a generous horizon the constrained value meets the free one
        assert oracle_min_swaps_at(inst, ms) == ms


def test_node_limit_enforced():
    inst = TmpInstance(path_graph(8), complete_graph(8))
    with pytest.raises(SizeLimitError):
        oracle_min_steps(inst)
    # raising the limit admits the instance
    assert oracle_min_steps(TmpInstance(path_graph(5), path_graph(5)), node_limit=5) == 0


def test_negative_steps_rejected():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    with pytest.raises(ValueError):
        oracle_min_swaps_at(inst, -1)


def test_no_connections_is_free():
    inst = TmpInstance(path_graph(4), Graph(4, []))
    assert oracle_min_steps(inst) == 0
    assert oracle_min_swaps(inst) == 0
    assert oracle_min_swaps_at(inst, 0) == 0


def test_kernels_agree(rng):
    pure = search_impl("python")
    try:
        fast = search_impl("compiled")
    except RuntimeError:
        pytest.skip("compiled kernel not built")
    import commroute.oracle as om

    saved = om._impl
    try:
        for _ in range(12):
            inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
            results = {}
            for impl in (pure, fast):
                om._impl = impl
                results[impl.IMPL_NAME] = (
                    oracle_min_steps(inst),
                    oracle_min_swaps(inst),
                    oracle_min_swaps_at(inst, oracle_min_steps(inst)),
                )
            vals = list(results.values())
            assert vals[0] == vals[1], results
    finally:
        om._impl = saved


def test_implementation_reports_name():
    assert IMPLEMENTATION in ("python", "compiled")


def test_placement_code_is_injective_beyond_16_nodes():
    from commroute._search_py import _code_width, _encode

    # at 4 bits per node these two collided: (1 << 4) | 0 == (0 << 4) | 16
    w = _code_width(17)
    assert _encode([1, 0], w) != _encode([0, 16], w)
    # up to 16 nodes the width stays 4 bits, so codes are as before
    assert [_code_width(n) for n in (2, 9, 16, 17, 32, 33)] == [4, 4, 4, 5, 5, 6]
    r = random.Random(17)
    for n in (17, 33):
        w = _code_width(n)
        for _ in range(50):
            tok = r.sample(range(n), n)
            code = _encode(tok, w)
            digits = [(code >> (w * (n - 1 - i))) & ((1 << w) - 1) for i in range(n)]
            assert digits == tok
