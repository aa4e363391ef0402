"""Every batched operator works in the blocks of one byte budget,
``errors.BLOCK_BYTES``, through ``errors.blocks``: the disk solve and defect,
power-integral builds, the Beurling-Ahlfors windows and the row writer.
Each item is computed on its own, so an output has the same bits at one
block and at many; only the memory a call holds at once depends on it."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import qcext.beurling_ahlfors as beurling_ahlfors
from qcext import cli, errors
from qcext.analysis import half_plane_grid
from qcext.beurling_ahlfors import extend_ba
from qcext.douady_earle import CircleMap, MobiusAutomorphism, de_defect, extend_de
from qcext.errors import QuadratureFailure, blocks
from qcext.realmap import Affine, PowerIntegral, _NodeSlopes, bump_map

ONE_BLOCK = 1 << 40  # a budget past every call here: each runs as one block


def test_blocks_are_the_in_order_slices_of_the_budget(monkeypatch):
    monkeypatch.setattr(errors, "BLOCK_BYTES", 100)
    assert blocks(7, 30) == [slice(0, 3), slice(3, 6), slice(6, 9)]
    assert blocks(6, 30) == [slice(0, 3), slice(3, 6)]
    # an item past the budget is a block of its own; no items, no blocks
    assert blocks(3, 1000) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert blocks(0, 8) == []


def test_the_default_budget_sizes_each_operator_as_documented(monkeypatch):
    # 128 KiB: 512 points of two 16-node windows, 341 panels of 48 nodes,
    # 3276 rows of five cells (and 16 points of 512 nodes: tests/test_de.py)
    assert errors.BLOCK_BYTES == 128 * 1024
    calls, sizes = [], []
    integral, held = beurling_ahlfors.adaptive_integral, _NodeSlopes.at
    monkeypatch.setattr(beurling_ahlfors, "adaptive_integral",
                        lambda f, a, b, tol: calls.append(a.shape) or integral(f, a, b, tol))
    monkeypatch.setattr(_NodeSlopes, "at",
                        lambda self, base, a, b: sizes.append(a.size) or held(self, base, a, b))
    extend_ba(Affine(2.0), 1j + np.linspace(-1.0, 1.0, 1025))
    assert calls == [(2, 512), (2, 512), (2, 1)]
    PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5)(np.array([-100.0, 100.0]))
    assert max(sizes) == 341
    cells = np.zeros((2 * 3276 + 1, 5))
    assert [len(text) for text in cli._row_texts(cells, "csv")][1:] == [
        3276 * 21, 3276 * 21, 21]  # "0.0,0.0,0.0,0.0,0.0\r\n" a row


def at_budgets(monkeypatch, call, budgets):
    """``call()`` with ``errors.BLOCK_BYTES`` at each budget, in order."""
    out = []
    for budget in budgets:
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        out.append(call())
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


def test_ba_has_the_bits_of_one_block_at_many(monkeypatch):
    zs = half_plane_grid(-3.0, 3.0, 0.05, 2.0, 9, 7)
    bump = bump_map(0.4, 1.3, 0.2)
    calls = []
    integral = beurling_ahlfors.adaptive_integral
    monkeypatch.setattr(beurling_ahlfors, "adaptive_integral",
                        lambda f, a, b, tol: calls.append(a.shape) or integral(f, a, b, tol))
    # a fresh power integral each call: its table grows block by block
    for make in (lambda: bump, lambda: PowerIntegral(bump, 0.5)):
        calls.clear()
        one, five, single = at_budgets(monkeypatch, lambda: extend_ba(make(), zs),
                                       (ONE_BLOCK, 5 * 256, 1))
        assert calls == [(2, 63)] + [(2, 5)] * 12 + [(2, 3)] + [(2, 1)] * 63
        assert same_bits(one, five) and same_bits(one, single)


def test_ba_refusal_names_the_point_of_the_first_failing_block(monkeypatch):
    # f = 1e308 x leaves the floats past |x| = 1.8: the plus window of the
    # first point and the minus window of the second.  One call over both
    # names the first failing window in the stacked order (minus windows
    # first), the second point's; per-point blocks name the first block's.
    f, zs = Affine(1e308), np.array([1.0 + 1.0j, -1.5 + 1.0j])
    for budget, at, index in ((ONE_BLOCK, "(-1.5+1j)", 1), (256, "(1+1j)", 2)):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        with pytest.raises(QuadratureFailure,
                           match=rf"^averaged extension at z={re.escape(at)}: "
                                 "integrand is not finite") as info:
            extend_ba(f, zs)
        assert info.value.index == index  # flat in the stacked windows of all points


def test_a_power_integral_table_budget_is_decided_per_block_call(monkeypatch):
    # the table limit applies to the range one call asks for, and BA asks
    # per block: the two far points together need more coarse panels than
    # the limit, each block alone does not
    monkeypatch.setattr(PowerIntegral, "_MAX_PANELS", 64)
    zs = np.array([-10.0 + 1.0j, 10.0 + 1.0j])
    monkeypatch.setattr(errors, "BLOCK_BYTES", ONE_BLOCK)
    with pytest.raises(QuadratureFailure, match="would need more than 64 panels"):
        extend_ba(PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5), zs)
    monkeypatch.setattr(errors, "BLOCK_BYTES", 256)
    assert np.isfinite(extend_ba(PowerIntegral(bump_map(0.0, 1.0, 0.3), 0.5), zs)).all()


def test_de_solve_and_defect_have_the_bits_of_one_block_at_many(monkeypatch, rng):
    zs = (0.85 * np.exp(2j * np.pi * rng.uniform(size=(5, 7)))
          * np.sqrt(rng.uniform(size=(5, 7))))
    for f in (MobiusAutomorphism(0.4, 0.2 + 0.1j).boundary(),
              CircleMap.from_fourier(0.1, [0.05, 0.02], [0.03])):
        budgets = (ONE_BLOCK, 3 * 16 * 512, 1)
        solves = at_budgets(monkeypatch, lambda: extend_de(f, zs), budgets)
        defects = at_budgets(monkeypatch, lambda: de_defect(f, 0.5 * zs[::-1], zs),
                             budgets)
        for runs in (solves, defects):
            assert all(same_bits(runs[0], r) for r in runs[1:])


def test_power_integral_build_has_the_bits_of_one_block_at_many(monkeypatch):
    xs = np.linspace(-30.0, 30.0, 401)
    sizes = []
    held = _NodeSlopes.at
    monkeypatch.setattr(_NodeSlopes, "at",
                        lambda self, base, a, b: sizes.append(a.size) or held(self, base, a, b))
    runs = []
    for budget in (ONE_BLOCK, 7 * 48 * 8):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        sizes.clear()
        f = PowerIntegral(bump_map(0.5, 2.0, 0.4), 0.7)
        runs.append((f(xs), *f._table))
        assert max(sizes) == (240 if budget == ONE_BLOCK else 7)
    assert all(same_bits(a, b) for a, b in zip(*runs))


def writer_columns(n, rng):
    """n rows of cells as the extensions give them, with repeats, -0.0 and
    an undefined (NaN) dilatation."""
    zs = rng.choice([-0.0, 0.0, 0.5, 1.0 / 3.0], n) + 1j * rng.choice([1.0, 2.0, 1e-300], n)
    vals = rng.normal(size=n) + 1j * rng.choice([-0.0, 0.0, 2.5, 1e300], n)
    dil = rng.choice([math.nan, -0.0, 0.25, np.copysign(math.nan, -1.0)], n)
    return zs, vals, dil


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, 3, 7, 10])
def test_writer_has_the_bytes_of_one_block_at_many(monkeypatch, capsys, tmp_path, rng,
                                                   fmt, n):
    zs, vals, dil = writer_columns(n, rng)
    out = tmp_path / f"rows.{fmt}"

    def both():  # stdout, then the --out file
        cli._write_rows(zs, vals, dil, None, fmt)
        cli._write_rows(zs, vals, dil, str(out), fmt)
        return capsys.readouterr().out, out.read_bytes()

    runs = at_budgets(monkeypatch, both, (ONE_BLOCK, 3 * 40, 1))
    assert runs[0][1] == runs[0][0].encode("utf-8")
    assert runs[1] == runs[0] and runs[2] == runs[0]


def peak_mib(call):
    """The peak of the memory that ``call()`` allocates, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


GRID_200 = half_plane_grid(-2.0, 2.0, 0.01, 2.0, 200, 200)


def test_ba_working_set_on_a_200_by_200_grid():
    # measured: 5.1 MiB in blocks; 67 MiB with all windows in one call
    assert peak_mib(lambda: extend_ba(bump_map(0.0, 1.0, 0.3), GRID_200)) < 16.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_working_set_on_a_200_by_200_grid(tmp_path, fmt):
    # measured: 3.4 MiB (csv) and 3.6 MiB (json) in blocks; 20 and 24 MiB
    # when the whole text was spelled before it was written
    vals = GRID_200 + 0.1 * np.sin(GRID_200.real)
    dil = np.full(GRID_200.shape, math.nan)
    assert peak_mib(lambda: cli._write_rows(GRID_200, vals, dil,
                                            str(tmp_path / "rows"), fmt)) < 8.0
