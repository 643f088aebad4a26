"""Every frozen-argument driver evaluation reads `SlotReader.slot_args`.

The map's slot terms, the flip equation's coefficients and terms, and
the stability functional's driver differences all take their arguments
from the stacked bit views of `slot_args` (here one slot through a
reader of its own, `slot_args` and `slot_terms` of tests/_oracles.py).
A stack of rows that read the swapped arguments must agree with its rows
stacked one at a time, one map of the flip equation with its rows split
one at a time by `_linearized_row` (tests/_oracles.py), and
`stability_compare` with the per-entry wiring of tests/_oracles.py.  The means come in one dense form, and `slot_args`
reads them as the three-form reader of tests/_oracles.py read lists of
floats, arrays behind the members and lists of variables.
"""

import numpy as np
import pytest

from mfbdsvie.drivers import LinearDriver, RiskDriver, ZPart
from mfbdsvie.fields import AdaptedPath, VolterraKernel
from mfbdsvie.lattice import LatticeSpec, MeasurableRV, build_lattice
from mfbdsvie.malliavin import _linearized_map, build_linearized
from mfbdsvie.solver import (
    Scenario,
    _stacked,
    means,
    picard_solve,
    reads_swapped,
    stability_compare,
)

from _oracles import (
    _linearized_row,
    entrywise_stability,
    lift,
    list_means,
    one_row,
    slot_args,
    slot_terms,
    three_form_slot_args,
)
from test_stack import CASES
from test_sweep import DRIVERS, R_IDX, TERMINAL, random_pair

SWAPPED = LinearDriver(f={"y": -0.3, "z_rev": 0.1}, g={"z": 0.04})
# a second driver for each of DRIVERS, read by the stability functional
PERTURBED = {
    "linear_mean_field": LinearDriver(
        f={"y": -0.1, "z_rev": 0.08, "mean_z_rev": 0.01},
        g={"z": 0.03, "z_rev": 0.01}, f_source=0.02,
        g_source=lambda t, s: 0.01 + 0.02 * s - 0.01 * t),
    "risk_smooth_abs": RiskDriver(rate=0.15, h=ZPart("smooth_abs", k1=0.2),
                                  g=ZPart("linear", k1=0.04)),
}


class TestSwappedStack:
    """A stack of rows reading the swapped arguments, whose entries sit on
    time fields that differ by row, against its rows one at a time."""

    N = 4

    @pytest.mark.parametrize("random_means", [False, True])
    def test_three_rows_equal_three_one_row_stacks(self, random_means):
        lat = build_lattice(self.N, 1.0)
        rng = np.random.default_rng(37)
        y, z = random_pair(lat, rng)
        if random_means:  # as the particle system's empirical means
            my, mz = random_pair(lat, rng)
            ey, ez = my.values, mz.values
        else:
            ey, ez = means(y, z)
        j = 2
        f, v = slot_terms(SWAPPED, y, z, ey, ez, j, range(0, 3))
        assert v.shape[0] == 3
        for i in range(3):
            g, w = slot_terms(SWAPPED, y, z, ey, ez, j, range(i, i + 1))
            got, want = one_row(f, v[i:i + 1]), one_row(g, w)
            assert np.array_equal(lift(got, f).values, lift(want, f).values)


class TestLinearizedMap:
    """One flip-equation map: each row a stack of its own in `map_rows`."""

    def linearized(self, name):
        lat = build_lattice(4, 1.0)
        rng = np.random.default_rng(41)
        sc = Scenario(lat, DRIVERS[name], TERMINAL)
        ls = build_linearized(sc, *random_pair(lat, rng), R_IDX)
        return ls, random_pair(lat, rng)

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_rows_equal_the_one_row_split(self, name):
        ls, (u, v) = self.linearized(name)
        y, z = _linearized_map(ls, (u, v))
        eu, ev = means(u, v)
        for i in range(len(y)):
            yi, row = _linearized_row(ls, u, v, eu, ev, i)
            # the path at rows <= r is zero, as in the entrywise flip
            want = yi.values if i > R_IDX else np.zeros_like(yi.values)
            assert np.array_equal(y[i].values, want)
            for zij, zij_ref in zip(z.z[i], row, strict=True):
                assert np.array_equal(zij.values, zij_ref.values)

    def test_no_lattice_variable_arithmetic(self):
        # the terms are numpy on bit views: a MeasurableRV has no product or
        # sum to call, so a map that runs made none
        ls, pair = self.linearized("linear_mean_field")
        assert not {"_binary", "__add__", "__mul__"} & set(vars(MeasurableRV))
        _linearized_map(ls, pair)


class TestStabilityTerms:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_against_entrywise_wiring(self, name):
        lat = build_lattice(4, 1.0)
        d1, d2 = DRIVERS[name], PERTURBED[name]
        beta = max(Scenario(lat, d, TERMINAL).beta for d in (d1, d2))
        sc1 = Scenario(lat, d1, TERMINAL, beta=beta)
        sc2 = Scenario(lat, d2, TERMINAL.shifted(0.05), beta=beta)
        rep = stability_compare(sc1, sc2)
        y1, z1, _ = picard_solve(sc1, tol=1e-12)
        y2, z2, _ = picard_solve(sc2, tol=1e-12)
        want = entrywise_stability(sc1, sc2, y1, z1, y2, z2)
        got = (rep.lhs, rep.zeta_term, rep.f_term, rep.g_term)
        assert min(want) > 0.0
        assert got == pytest.approx(want, rel=1e-13)


def mean_forms(form: str, rng):
    """A lattice, pair and slot stack of rows, with the means in the one
    form and in the form the three-form reader took: a pair's expectations,
    a batch's of 1 or 3 members, or random means on 1-3 lanes (one member
    a lane, as the particles' empirical means)."""
    kind, count = form[:-1], int(form[-1])
    lanes = count if kind == "lanes" else 1
    lat = LatticeSpec(n_steps=(4, 3, 2)[lanes - 1], horizon=1.0, lanes=lanes)
    if kind == "pair":
        y, z = random_pair(lat, rng)
        return lat, y, z, means(y, z), list_means(y, z)
    y, z = (_stacked(parts)
            for parts in zip(*[random_pair(lat, rng) for _ in range(count)]))
    if kind == "batch":
        return lat, y, z, means(y, z), list_means(y, z)
    k = 1.0 / count
    ey, ez = y.values.sum(axis=0) * k, z.values.sum(axis=0) * k
    return lat, y, z, (ey, ez), (AdaptedPath(lat, ey.copy()).y,
                                 VolterraKernel(lat, ez.copy()).z)


class TestOneMeanForm:
    """Every argument of `slot_args` on the dense means equals the
    three-form reader's after broadcasting, and so does every f and g
    output on them; a one-entry mean argument is a float."""

    @pytest.mark.parametrize("form", ["pair1", "batch1", "batch3", "lanes1",
                                      "lanes2", "lanes3"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equal_to_the_three_form_reader(self, name, form):
        driver = CASES[name]
        swapped = reads_swapped(driver)
        lat, y, z, dense, old = mean_forms(form, np.random.default_rng(43))
        for j in range(lat.n_steps):
            for rows in [range(j + 1)] + [range(i, i + 1)
                                          for i in range(j + 1)]:
                f, t, left, right = slot_args(y, z, *dense, j, rows, swapped)
                f_old, t_old, left_old, right_old = three_form_slot_args(
                    y, z, *old, j, rows, swapped)
                assert f == f_old and np.array_equal(t, t_old)
                for got, want in zip(left + right, left_old + right_old,
                                     strict=True):
                    assert np.array_equal(*np.broadcast_arrays(got, want))
                for fn, s, got, want in (
                        (driver.f_values, lat.node(j), left, left_old),
                        (driver.g_values, lat.node(j + 1), right, right_old)):
                    assert np.array_equal(*np.broadcast_arrays(
                        fn(t, s, *got), fn(t, s, *want)))

    @pytest.mark.parametrize("form", ["pair1", "batch1"])
    def test_one_entry_mean_is_a_float(self, form):
        _, y, z, dense, _ = mean_forms(form, np.random.default_rng(47))
        _, _, left, right = slot_args(y, z, *dense, 2, range(2, 3))
        for args in (left, right):
            assert [type(a) for a in args[3:]] == [float] * 3
