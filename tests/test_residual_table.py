"""The exact identities: one walk of extremes, no defect table.

`lattice.row_extremes` gives the residual's and the extension identity's
sups without a defect table; each must equal the ordered sum of
tests/_oracles.py bit for bit and its old one-row or whole-table form to
within the slack of two summation orders.  The same walk, carrying each
row's mean and centred variance, gives the upper-triangle identity's
rows and l2, which must match its one-row sums to rounding.  One warm
`residual`, `m_identity_residual` or `check_delta_equation` holds far
less than a table of 4^N doubles, and the one-row adapter, the audited
sum and the old defect table stay out of the package.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfbdsvie
from mfbdsvie.fields import AdaptedPath, VolterraKernel, m_identity_residual
from mfbdsvie.lattice import _max_abs, build_lattice
from mfbdsvie.malliavin import build_linearized, check_delta_equation
from mfbdsvie.solver import (
    Scenario,
    picard_solve,
    representation_pair,
    residual,
)

from _oracles import (
    ordered_m_identity,
    ordered_residual,
    per_row_delta_equation,
    per_row_residual,
    whole_table_m_identity,
)
from test_stack import BLIND, CASES
from test_sweep import TERMINAL, random_pair


def peak_bytes(call):
    """Bytes traced at the peak of one warm call, above those held before."""
    call()  # warm: imports and caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def assert_ordered(got, ordered, old):
    """got is the walk's ordered sum bit for bit, and within the slack of
    two summation orders of the old form."""
    sup, slack = ordered
    assert got == sup
    assert abs(got - old) <= slack


def perturbed(y, z, rng, eps=1e-3):
    dy, dz = random_pair(y.lattice, rng)
    return (AdaptedPath(y.lattice, y.values + eps * dy.values),
            VolterraKernel(y.lattice, z.values + eps * dz.values))


class TestResidual:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bitwise_the_one_row_sum_at_n8(self, name):
        sc = Scenario(build_lattice(8, 1.0), CASES[name], TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        for pair in ((y, z), perturbed(y, z, np.random.default_rng(8))):
            assert_ordered(residual(sc, *pair), ordered_residual(sc, *pair),
                           per_row_residual(sc, *pair))

    def test_peak_memory_at_n10(self):
        # the walk's stacks and the slot stacks, 2^(N + 1) entries a row
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)
        y, z = representation_pair(sc)
        assert peak_bytes(lambda: residual(sc, y, z)) <= 0.25 * 8 * 4 ** n


class TestExtensionIdentity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bitwise_the_whole_table_at_n9(self, name):
        sc = Scenario(build_lattice(9, 1.0), CASES[name], TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        for pair in ((y, z), perturbed(y, z, np.random.default_rng(9))):
            assert_ordered(m_identity_residual(*pair),
                           ordered_m_identity(*pair),
                           whole_table_m_identity(*pair))

    def test_peak_memory_at_n10(self):
        # the walk's stack, 2^(N + 1) entries a row, and the targets
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)
        y, z = representation_pair(sc)
        peak = peak_bytes(lambda: m_identity_residual(y, z))
        assert peak <= 0.25 * 8 * 4 ** n


class TestDeltaEquation:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_against_the_one_row_sum_at_n6(self, name):
        lat = build_lattice(6, 1.0)
        sc = Scenario(lat, CASES[name], TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        for r in range(lat.n_steps):
            ls = build_linearized(sc, y, z, r)
            got = check_delta_equation(ls)
            rows, worst, l2 = per_row_delta_equation(ls)
            for (i, s, gap), (i_ref, s_ref, gap_ref) in zip(got.rows, rows,
                                                            strict=True):
                assert (i, s) == (i_ref, s_ref)
                assert abs(gap - gap_ref) <= 1e-15 * max(1.0, gap_ref)
            assert abs(got.worst - worst) <= 1e-15 * max(1.0, worst)
            assert abs(got.l2 - l2) <= 1e-15 * max(1.0, l2)

    def test_peak_memory_at_n10(self):
        # the flip pair, the walk's four tables of 2^(N + 1) entries a row
        # and the slot stacks: no table of 4^N doubles
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        ls = build_linearized(sc, y, z, 3)
        peak = peak_bytes(lambda: check_delta_equation(ls))
        assert peak <= 0.25 * 8 * 4 ** n

    def test_peak_memory_with_one_flip_at_n10(self):
        # the flip pair is built in place on the dense arrays, so the
        # per-entry flip tables are never alive beside it
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        ls = build_linearized(sc, y, z, 3)
        peak = peak_bytes(lambda: check_delta_equation(ls))
        assert peak <= 0.22 * 8 * 4 ** n


class TestTablePieces:
    @pytest.mark.parametrize("r", [0, 2, 5])
    def test_difference_added_in_blocks(self, r):
        # on a pair that solves nothing, the flip at slot r walks each row's
        # difference x_i - target_i by halves over the W bits after r, so
        # r sets the size of the blocks merged before a row reads its gap
        lat = build_lattice(6, 1.0)
        sc = Scenario(lat, CASES["linear_mean_field"], TERMINAL)
        y, z = random_pair(lat, np.random.default_rng(13))
        assert_ordered(residual(sc, y, z), ordered_residual(sc, y, z),
                       per_row_residual(sc, y, z))
        ls = build_linearized(sc, y, z, r)
        rows, worst, l2 = per_row_delta_equation(ls)
        got = check_delta_equation(ls)
        for (i, s, gap), (i_ref, s_ref, gap_ref) in zip(got.rows, rows,
                                                        strict=True):
            assert (i, s) == (i_ref, s_ref)
            assert abs(gap - gap_ref) <= 1e-15 * max(1.0, gap_ref)
        assert abs(got.worst - worst) <= 1e-15 * max(1.0, worst)
        assert abs(got.l2 - l2) <= 1e-15 * max(1.0, l2)
        assert_ordered(m_identity_residual(y, z), ordered_m_identity(y, z),
                       whole_table_m_identity(y, z))

    def test_max_abs_as_numpy_reads_it(self):
        rng = np.random.default_rng(17)
        for v in (rng.normal(size=64), -np.abs(rng.normal(size=64)),
                  np.array([0.0, -0.0]), np.array([1.0, np.inf, -2.0]),
                  np.array([-np.inf, 3.0])):
            got = _max_abs(v)
            assert got == float(np.max(np.abs(v)))
            assert np.copysign(1.0, got) == 1.0
        assert np.isnan(_max_abs(np.array([1.0, np.nan, -3.0])))


class TestOneTablePath:
    """The one-row adapter and the audited sum live in tests/_oracles.py
    only."""

    def test_no_one_row_in_the_package(self):
        for path in Path(mfbdsvie.__file__).parent.glob("*.py"):
            assert not re.search(r"\bone_row\b", path.read_text()), path.name

    def test_no_audited_sum_in_the_package(self):
        for path in Path(mfbdsvie.__file__).parent.glob("*.py"):
            assert not re.search(r"^def _(audited|source)_sum\(",
                                 path.read_text(), re.M), path.name


class TestOneDefectRoutine:
    """`lattice.row_extremes` walks every exact identity, the residual, the
    extension identity and the flip identity, one walk for blind and
    `z_rev` drivers; it is named in `lattice` only, and the defect table
    and its block walk it replaced in no package module."""

    SRC = Path(mfbdsvie.__file__).parent

    def owners(self, name):
        return [path.name for path in sorted(self.SRC.glob("*.py"))
                if re.search(rf"^def {name}\(", path.read_text(), re.M)]

    def test_one_routine_in_lattice(self):
        # the flip identity's defect table left with the block walk: every
        # identity's defects are walked by lattice's one routine
        assert self.owners("row_defects") == []
        assert self.owners("row_extremes") == ["lattice.py"]

    def test_one_walk_in_lattice(self):
        assert self.owners("row_extremes") == ["lattice.py"]

    def test_extension_identity_sums_no_forward_integral(self):
        fields = (self.SRC / "fields.py").read_text()
        assert not re.search(r"\bforward_integral\b", fields)
        assert re.search(r"\brow_extremes\(", fields)

    def test_solver_and_fields_walk_no_table(self):
        for name in ("solver.py", "fields.py"):
            text = (self.SRC / name).read_text()
            assert not re.search(r"\brow_defects\b", text), name
            assert re.search(r"\brow_extremes\(", text), name

    def test_flip_identity_walks_the_same_stacks(self):
        text = (self.SRC / "malliavin.py").read_text()
        assert re.search(r"\brow_extremes\(", text)

    def test_block_walk_named_in_lattice_only(self):
        # and since the defect table left, in lattice neither
        for path in self.SRC.glob("*.py"):
            assert not re.search(r"\b(row_defects|_blocks|BLOCK_BITS)\b",
                                 path.read_text()), path.name

    def test_extension_peak_memory_at_n10(self):
        # the walk's stack and the targets: no table of 4^N doubles
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)
        y, z = representation_pair(sc)
        peak = peak_bytes(lambda: m_identity_residual(y, z))
        assert peak <= 0.25 * 8 * 4 ** n
