"""Answers at 10^10-10^13, where the censuses take seconds to a minute.

Skipped unless TUPLESIEVE_SCALE=1, so the default suite keeps its time:

    TUPLESIEVE_SCALE=1 PYTHONPATH=src python -m pytest -q tests/test_scale.py

The counts equal OEIS A007508 (twin pairs below 10^n), A050258
(quadruplets below 10^n) and A005602 (least first-kind chains); the
`sum.hex()` values are this code's own, correctly rounded sums.
"""

import os

import pytest

from tuplesieve.apps import QUAD_PATTERN, quads, twins
from tuplesieve.search import SearchConfig, run_striped, smallest_chain

from conftest import checkpoint_position, run_interrupted

pytestmark = pytest.mark.skipif(os.environ.get("TUPLESIEVE_SCALE") != "1",
                                reason="scale points run with TUPLESIEVE_SCALE=1")


@pytest.mark.parametrize("nu", [1, 2])
def test_quads_1e10(nu):
    res = quads(10**10, nu=nu)
    assert (res.count, res.recip_sum.hex()) == (180529, "0x1.bd8252096d465p-1")


def test_quads_1e10_resumed_under_two_workers(tmp_path):
    # interrupted after residue 90 of 189 in one process, then finished from
    # its checkpoint in two
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**10 - 1, nu=1)
    ck = tmp_path / "quads.ckpt"
    run_interrupted(cfg, 90, ck, keep_xs=False)
    assert checkpoint_position(ck) == 90
    res = run_striped(cfg._replace(nu=2), checkpoint_path=str(ck), keep_xs=False)
    assert res.resumed
    assert (res.count, res.recip_sum.hex()) == (180529, "0x1.bd8252096d465p-1")


def test_quads_1e11():
    res = quads(10**11, nu=2)
    assert (res.count, res.recip_sum.hex()) == (1209318, "0x1.bd911b1f92cb9p-1")


def test_twins_1e10():
    res = twins(10**10, nu=2)
    assert (res.count, res.recip_sum.hex()) == (27412679, "0x1.c99830ef7b70cp+0")


@pytest.mark.parametrize("length, x", [(10, 26089808579), (11, 665043081119),
                                       (12, 554688278429)])
def test_smallest_chain_a005602(length, x):
    assert smallest_chain("first", length, 10**13) == x
