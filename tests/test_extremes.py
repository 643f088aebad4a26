"""Every exact identity by a walk of extremes.

`lattice.row_extremes` takes each row's sup |D_i| without a table of
D_i: it walks the W bits from the top and keeps a max and a min table
over the bits already eliminated.  Rounded addition is monotone, so it
must equal, bit for bit, the brute-force max over every path of the same
ordered sum (`_oracles.ordered_row_extremes`), for drivers blind to
z_rev (one stack) and for drivers that read it (a walk per row): the
residual's rows, the extension identity's and the flip identity's.  With
the mean square the walk also carries each row's mean and centred
variance, whose E[D_i^2] must match the whole table's to within the
row's slack, and only the flip identity asks for it.  A NaN or inf term
must reach the residual and the flip identity's worst and l2, the walk
must hold no 4^N table for a blind driver and no more than a map for
any, and the identities refuse a pair from another lattice.
"""

import inspect
import re
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest

from mfbdsvie import lattice, malliavin, solver
from mfbdsvie.cli import run
from mfbdsvie.drivers import DriverSpec
from mfbdsvie.errors import IndexOutOfRange, LatticeMismatch
from mfbdsvie.fields import _path_rows, m_identity_residual
from mfbdsvie.lattice import (
    SigmaField,
    build_lattice,
    row_extremes,
    terminal_rows,
    time_field,
)
from mfbdsvie.malliavin import (
    build_linearized,
    check_clark_ocone,
    check_delta_equation,
    flip_solution,
)
from mfbdsvie.solver import (
    Scenario,
    SlotReader,
    _driver_terms,
    gamma_map,
    means,
    picard_solve,
    representation_pair,
    residual,
)

from _oracles import (
    _linearized_term,
    condexp,
    ordered_m_identity,
    ordered_mean_squares,
    ordered_residual,
    ordered_row_extremes,
    rows_of,
    slot_term,
)
from test_residual_table import peak_bytes, perturbed
from test_stack import BLIND, CASES
from test_sweep import TERMINAL

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@lru_cache(maxsize=None)
def solved(name, n):
    sc = Scenario(build_lattice(n, 1.0), CASES[name], TERMINAL)
    y, z, _ = picard_solve(sc, tol=1e-12, report=False)
    return sc, y, z


def pairs(name, n):
    """The solved pair, and one perturbed by 1e-3 of a random pair."""
    sc, y, z = solved(name, n)
    return sc, ((y, z), perturbed(y, z, np.random.default_rng(n)))


class TestOrderedSum:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_every_row_equals_the_ordered_sum(self, n, name):
        sc, both = pairs(name, n)
        slots = [range(i, n) for i in range(n + 1)]
        for y, z in both:
            x = terminal_rows(sc.lattice, sc.zeta)
            got = row_extremes(x, _path_rows(y), z, *_driver_terms(sc, y, z),
                               slots)
            want = ordered_row_extremes(
                x, _path_rows(y), z,
                partial(slot_term, sc.driver, y, z, *means(y, z)), slots)
            assert got.tolist() == [sup for sup, _ in want]
            assert residual(sc, y, z) == ordered_residual(sc, y, z)[0]

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_extension_identity_equals_the_ordered_sum(self, n, name):
        _, both = pairs(name, n)
        for y, z in both:
            base = SigmaField(y.lattice, 0, 0)
            slots = [range(i) for i in range(n + 1)]
            targets = rows_of([condexp(yi, base) for yi in y.y])
            got = row_extremes(_path_rows(y), targets, z, None, False, slots)
            want = ordered_row_extremes(_path_rows(y), targets, z, None, slots)
            assert got.tolist() == [sup for sup, _ in want]
            assert m_identity_residual(y, z) == ordered_m_identity(y, z)[0]

    def test_one_stack_and_a_walk_per_row_agree(self):
        # the extension identity has no term: its rows walk as one stack or
        # each alone, with the same sums
        _, both = pairs("linear_mean_field", 6)
        for y, z in both:
            base = SigmaField(y.lattice, 0, 0)
            targets = rows_of([condexp(yi, base) for yi in y.y])
            slots = [range(i) for i in range(7)]
            assert np.array_equal(
                row_extremes(_path_rows(y), targets, z, None, False, slots),
                row_extremes(_path_rows(y), targets, z, None, True, slots))


def flip_rows(ls):
    """The flip identity's rows as the walk takes them: (x, target, kernel,
    slots, stacked term, one-row term)."""
    r, n = ls.r_idx, ls.scenario.lattice.n_steps
    u, v = flip_solution(ls.base_y, ls.base_z, r)
    args = (ls, u, v, *means(u, v))
    lat = ls.scenario.lattice
    return (terminal_rows(lat, ls.source[:r + 1]),
            ((time_field(lat, r),) * (r + 1), ls.base_z.values[:r + 1, r]), v,
            [range(r, n)] * (r + 1),
            partial(malliavin._linearized_terms, ls,
                    SlotReader(*args[1:]), include_swapped=False),
            partial(_linearized_term, *args, include_swapped=False))


class TestFlipIdentity:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [4, 6])
    def test_every_row_gap_equals_the_ordered_sum(self, n, name):
        sc, both = pairs(name, n)
        for y, z in both:
            for r in range(n):
                ls = build_linearized(sc, y, z, r)
                x, target, v, slots, _, term = flip_rows(ls)
                want = ordered_row_extremes(x, target, v, term, slots)
                assert ([gap for *_, gap in check_delta_equation(ls).rows]
                        == [sup for sup, _ in want])

    @pytest.mark.parametrize("where", ["one path", "every path"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["z_rev_blind", "linear_mean_field"])
    def test_a_bad_term_reaches_worst_and_l2(self, monkeypatch, name, bad,
                                             where):
        sc, y, z = solved(name, 4)
        r = 1
        ls = build_linearized(sc, y, z, r)
        terms = malliavin._linearized_terms

        def poisoned(*args, **kwargs):
            got = terms(*args, **kwargs)
            if args[2] != r + 1:
                return got
            f, v = got
            v = np.array(v)
            if where == "one path":
                v.flat[0] = bad
            else:
                v[...] = bad
            return f, v

        monkeypatch.setattr(malliavin, "_linearized_terms", poisoned)
        rep = check_delta_equation(ls)
        assert not np.isfinite(rep.worst)
        assert not np.isfinite(rep.l2)


class TestMeanSquare:
    @staticmethod
    def identities(name, n):
        """(x, target, kernel, stacked term, swapped, one-row term, slots)
        of the residual, the extension identity and the flip identity at
        every r, on the solved and the perturbed pair."""
        sc, both = pairs(name, n)
        for y, z in both:
            yield (terminal_rows(sc.lattice, sc.zeta), _path_rows(y), z,
                   *_driver_terms(sc, y, z),
                   partial(slot_term, sc.driver, y, z, *means(y, z)),
                   [range(i, n) for i in range(n + 1)])
            base = SigmaField(y.lattice, 0, 0)
            yield (_path_rows(y), rows_of([condexp(yi, base) for yi in y.y]),
                   z, None, False,
                   None, [range(i) for i in range(n + 1)])
            for r in range(n):
                ls = build_linearized(sc, y, z, r)
                x, target, v, slots, stacked, term = flip_rows(ls)
                yield x, target, v, stacked, ls.scenario.swapped, term, slots

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_within_the_slack_of_the_whole_table(self, name):
        # |sqrt(walk) - sqrt(whole table)| is an L2 gap of two roundings of
        # the same defects, each within the row's slack of the exact one;
        # a raw-moment form misses it by about sqrt(eps)
        for x, target, z, term, swapped, one_row, slots in self.identities(
                name, 5):
            sups, squares = row_extremes(x, target, z, term, swapped, slots,
                                         mean_square=True)
            assert sups.tolist() == row_extremes(x, target, z, term,
                                                 swapped, slots).tolist()
            want = ordered_mean_squares(x, target, z, one_row, slots)
            ext = ordered_row_extremes(x, target, z, one_row, slots)
            for got, ref, (_, slack) in zip(squares, want, ext, strict=True):
                assert abs(np.sqrt(got) - np.sqrt(ref)) <= slack

    def test_only_the_flip_identity_carries_it(self, monkeypatch):
        sc, y, z = solved("z_rev_blind", 4)
        eliminate, tables = lattice._eliminate, []

        def counting(*args):
            got = eliminate(*args)
            tables.append(len(got[0]))
            return got

        monkeypatch.setattr(lattice, "_eliminate", counting)
        residual(sc, y, z)
        m_identity_residual(y, z)
        assert set(tables) == {2}  # hi and lo
        tables.clear()
        check_delta_equation(build_linearized(sc, y, z, 1))
        assert set(tables) == {4}  # hi, lo, the mean and the variance

    def test_no_nan_dropping_reduction_in_the_walk(self):
        source = "".join(inspect.getsource(f) for f in (
            lattice.row_extremes, lattice._join, lattice._eliminate,
            lattice._add, lattice._max_abs))
        assert not re.search(r"\b(fmax|fmin|nan[a-z]+)\(", source)


class Poisoned(DriverSpec):
    """A driver passing through to another, with `bad` added to f at slot 2
    once armed (after the scenario's source bound and the solve)."""

    def __init__(self, base: DriverSpec, bad: float):
        self.base, self.bad, self.armed = base, bad, False
        self.lipschitz_c = base.lipschitz_c
        self.lipschitz_alpha = base.lipschitz_alpha

    def f_values(self, t, s, *args):
        v = self.base.f_values(t, s, *args)
        return v + self.bad if self.armed and s == self.at else v

    def g_values(self, t, s, *args):
        return self.base.g_values(t, s, *args)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["z_rev_blind", "linear_mean_field"])
    def test_a_bad_term_reaches_the_residual(self, name, bad):
        lat = build_lattice(4, 1.0)
        driver = Poisoned(CASES[name], bad)
        driver.at = lat.node(2)
        sc = Scenario(lat, driver, TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        driver.armed = True
        got = residual(sc, y, z)
        assert np.isnan(got) if np.isnan(bad) else got == np.inf
        assert not got <= 1e300

    @pytest.mark.parametrize("name", ["z_rev_blind", "linear_mean_field"])
    def test_a_nan_on_half_the_paths_reaches_the_residual(self, monkeypatch,
                                                          name):
        # NaN where W bit 2 is set in the slot-2 terms: each max and min
        # over that bit meets a NaN and a number, where fmax and fmin
        # would drop the NaN
        sc, y, z = solved(name, 4)
        driver_terms = solver._driver_terms

        def poisoned(sc, y, z):
            term, swapped = driver_terms(sc, y, z)

            def half(k, rows):
                f, v = term(k, rows)
                if k == 2:
                    v = np.array(v)
                    v[:, 1] = np.nan  # the first bit axis is W bit k
                return f, v

            return half, swapped

        monkeypatch.setattr(solver, "_driver_terms", poisoned)
        assert np.isnan(residual(sc, y, z))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_the_cli_fails_such_a_run(self, tmp_path, monkeypatch, bad):
        exact = solver.residual

        def poisoned(sc, y, z):
            driver = Poisoned(sc.driver, bad)
            driver.at, driver.armed = sc.lattice.node(2), True
            sc.driver = driver
            return exact(sc, y, z)

        monkeypatch.setattr(solver, "residual", poisoned)
        out = tmp_path / "out"
        code = run("solve", str(SCENARIOS / "linear_solve.json"), str(out))
        summary = (out / "summary.txt").read_text()
        assert code == 2
        assert "verdict: FAIL" in summary
        assert f"final_residual: {bad}" in summary


class TestLatticeMismatch:
    def test_extension_identity_of_two_step_counts(self):
        y, _ = representation_pair(Scenario(build_lattice(4, 1.0), BLIND,
                                             TERMINAL))
        _, z = representation_pair(Scenario(build_lattice(5, 1.0), BLIND,
                                            TERMINAL))
        with pytest.raises(LatticeMismatch):
            m_identity_residual(y, z)

    def test_extension_identity_of_two_horizons(self):
        y, _ = representation_pair(Scenario(build_lattice(4, 1.0), BLIND,
                                            TERMINAL))
        _, z = representation_pair(Scenario(build_lattice(4, 2.0), BLIND,
                                            TERMINAL))
        with pytest.raises(LatticeMismatch):
            m_identity_residual(y, z)

    @pytest.mark.parametrize("other", [(4, 2.0), (5, 1.0), (3, 1.0)])
    @pytest.mark.parametrize("which", ["path", "kernel", "both"])
    def test_residual_of_a_pair_from_another_lattice(self, other, which):
        sc = Scenario(build_lattice(4, 1.0), BLIND, TERMINAL)
        y, z = representation_pair(sc)
        oy, oz = representation_pair(Scenario(build_lattice(*other), BLIND,
                                              TERMINAL))
        pair = {"path": (oy, z), "kernel": (y, oz), "both": (oy, oz)}[which]
        with pytest.raises(LatticeMismatch):
            residual(sc, *pair)


class TestClarkOconeSlot:
    @pytest.mark.parametrize("r_idx", [-1, 4, 5])
    def test_a_slot_outside_the_lattice_is_refused(self, r_idx):
        sc = Scenario(build_lattice(4, 1.0), BLIND, TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        with pytest.raises(IndexOutOfRange):
            check_clark_ocone(y, z, r_idx)

    def test_the_last_slot_checks_the_last_row(self):
        sc = Scenario(build_lattice(4, 1.0), BLIND, TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        rep = check_clark_ocone(y, z, 3)
        assert [row[:2] for row in rep.rows] == [(4, 3)]
        assert rep.worst <= 1e-10


class TestMemory:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_residual_holds_no_more_than_a_map(self, name):
        sc = Scenario(build_lattice(8, 1.0), CASES[name], TERMINAL)
        y, z = gamma_map(sc, *representation_pair(sc))
        assert (peak_bytes(lambda: residual(sc, y, z))
                <= peak_bytes(lambda: gamma_map(sc, y, z)))

    def test_reported_solve_and_extension_identity_at_n10(self):
        # the dense pairs of a solve and the walks' stacks: far below one
        # table of 4^N doubles
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)

        def both():
            y, z, _ = picard_solve(sc, tol=1e-10)
            m_identity_residual(y, z)

        assert peak_bytes(both) < 8 * 4 ** n
