"""Exact probability-space checks: fields, conditioning, integrals, flips.

The arithmetic, lifts, expectations and flips of single variables are the
per-entry algebra of tests/_oracles.py (`add`, `sub`, `mul`, `neg`,
`constant`, `lift`, `expectation`, `flip_derivative`, `b_increment`);
`MeasurableRV` itself is the package's (field, table) record.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbdsvie import errors
from mfbdsvie.lattice import (
    MeasurableRV,
    SigmaField,
    build_lattice,
    condexp,
    full_field,
    time_field,
)

from _oracles import (
    PathIndex,
    add,
    all_paths,
    at,
    b_increment,
    b_tail,
    backward_integral,
    brute_condexp,
    constant,
    depends_on_b_bit,
    depends_on_w_bit,
    expectation,
    flip_derivative,
    forward_integral,
    inc_of,
    lift,
    measurable_wrt,
    mul,
    neg,
    sub,
    w_increment,
    w_level,
    zero_rv,
)

TOL = 1e-12


def full_table(rv):
    """Lift to a (2^M, 2^M) array indexed by (w_bits, b_bits)."""
    m = rv.lattice.n_bits
    out = np.empty((1 << m, 1 << m))
    for w in range(1 << m):
        for b in range(1 << m):
            out[w, b] = at(rv, PathIndex(w, b))
    return out


class TestBuildLattice:
    def test_basic_arithmetic(self):
        lat = build_lattice(2, 1.0)
        assert lat.dt == pytest.approx(0.5)
        assert lat.inc == pytest.approx(0.7071067811865476)

    def test_single_step(self):
        lat = build_lattice(1, 2.0)
        assert lat.dt == pytest.approx(2.0)
        assert lat.inc == pytest.approx(1.4142135623730951)

    def test_step_count_guard(self):
        with pytest.raises(errors.StepCountOutOfRange):
            build_lattice(15, 1.0)
        with pytest.raises(errors.StepCountOutOfRange):
            build_lattice(0, 1.0)

    def test_horizon_guard(self):
        with pytest.raises(errors.NonPositiveHorizon):
            build_lattice(2, 0.0)

    def test_dt_times_n_is_horizon(self):
        for n in (1, 3, 7, 14):
            lat = build_lattice(n, 1.7)
            assert lat.dt * n == pytest.approx(1.7, abs=1e-15)

    def test_path_count_and_probability(self):
        lat = build_lattice(2, 1.0)
        paths = list(all_paths(lat))
        assert len(paths) == 4 ** 2
        assert len(set(paths)) == len(paths)


class TestCondexp:
    def test_measurable_input_unchanged(self):
        lat = build_lattice(2, 1.0)
        x = mul(w_increment(lat, 0), b_increment(lat, 1))
        out = condexp(x, time_field(lat, 1))
        assert np.allclose(full_table(out), full_table(x))

    def test_lost_backward_information_averages_to_zero(self):
        lat = build_lattice(2, 1.0)
        x = mul(w_increment(lat, 0), b_increment(lat, 1))
        out = condexp(x, time_field(lat, 2))
        assert out.max_abs() <= TOL

    def test_martingale_property_of_walk(self):
        lat = build_lattice(2, 1.0)
        out = condexp(w_level(lat, 2), time_field(lat, 1))
        assert np.allclose(full_table(out), full_table(w_level(lat, 1)))

    def test_lattice_mismatch(self):
        lat1 = build_lattice(2, 1.0)
        lat2 = build_lattice(3, 1.0)
        with pytest.raises(errors.LatticeMismatch):
            condexp(zero_rv(lat1), time_field(lat2, 1))

    def test_matches_brute_force(self):
        lat = build_lattice(3, 1.0)
        rng = np.random.default_rng(7)
        x = MeasurableRV(
            SigmaField(lat, 3, 0), rng.standard_normal((8, 8))
        )
        for (a, b) in [(0, 0), (1, 2), (2, 2), (3, 3), (0, 3), (2, 0)]:
            got = full_table(condexp(x, SigmaField(lat, a, b)))
            want = brute_condexp(full_table(x), a, b, 3)
            assert np.allclose(got, want, atol=TOL)

    def test_non_filtration_witness(self):
        # conditioning through a later time is not the same as one step:
        # t_2 has already lost the backward increment dB_1 that t_1 knows,
        # so the time fields are not nested in either direction
        lat = build_lattice(2, 1.0)
        x = mul(w_increment(lat, 0), b_increment(lat, 1))
        twice = condexp(condexp(x, time_field(lat, 2)), time_field(lat, 1))
        once = condexp(x, time_field(lat, 1))
        assert np.max(np.abs(full_table(twice) - full_table(once))) > 0.1


@st.composite
def rv_and_fields(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    lat = build_lattice(n, 1.0)
    vals = draw(
        st.lists(
            st.floats(min_value=-4, max_value=4, allow_nan=False),
            min_size=4 ** n,
            max_size=4 ** n,
        )
    )
    table = np.array(vals).reshape(1 << n, 1 << n)
    x = MeasurableRV(SigmaField(lat, n, 0), table)
    a1 = draw(st.integers(min_value=0, max_value=n))
    a2 = draw(st.integers(min_value=0, max_value=n))
    b = draw(st.integers(min_value=0, max_value=n))
    return lat, x, sorted((a1, a2)), b


class TestTowerProperty:
    @given(rv_and_fields())
    @settings(max_examples=60, deadline=None)
    def test_tower_in_w_with_b_fixed(self, data):
        lat, x, (a1, a2), b = data
        f_fine = SigmaField(lat, a2, b)
        f_coarse = SigmaField(lat, a1, b)
        two_step = condexp(condexp(x, f_fine), f_coarse)
        one_step = condexp(x, f_coarse)
        assert np.max(np.abs(two_step.values - one_step.values)) <= TOL

    @given(rv_and_fields())
    @settings(max_examples=60, deadline=None)
    def test_tower_in_b_with_w_fixed(self, data):
        lat, x, (b1, b2), a = data
        f_fine = SigmaField(lat, a, b1)   # smaller b_from knows more B
        f_coarse = SigmaField(lat, a, b2)
        two_step = condexp(condexp(x, f_fine), f_coarse)
        one_step = condexp(x, f_coarse)
        assert np.max(np.abs(two_step.values - one_step.values)) <= TOL


class TestExpectation:
    def test_increment_mean_zero(self):
        lat = build_lattice(3, 1.0)
        for j in range(3):
            assert expectation(w_increment(lat, j)) == pytest.approx(0.0, abs=TOL)
            assert expectation(b_increment(lat, j)) == pytest.approx(0.0, abs=TOL)

    def test_quadratic_variation(self):
        lat = build_lattice(3, 1.5)
        dw = w_increment(lat, 1)
        assert expectation(mul(dw, dw)) == pytest.approx(lat.dt, abs=TOL)

    def test_forward_backward_orthogonality(self):
        lat = build_lattice(2, 1.0)
        for i in range(2):
            for j in range(2):
                prod = mul(w_increment(lat, i), b_increment(lat, j))
                assert expectation(prod) == pytest.approx(0.0, abs=TOL)


class TestForwardIntegral:
    def test_constant_integrand_telescopes(self):
        lat = build_lattice(3, 1.0)
        ones = [constant(lat, 1.0)] * 3
        out = forward_integral(ones, 0, 3)
        assert np.allclose(full_table(out), full_table(w_level(lat, 3)))

    def test_zero_integrand(self):
        lat = build_lattice(2, 1.0)
        out = forward_integral([zero_rv(lat)] * 2, 0, 2)
        assert out.max_abs() == 0.0

    def test_predictable_product_and_isometry(self):
        # z_0 = 0, z_1 = dW_0: integral is dW_0 dW_1, second moment dt^2,
        # frozen from enumerating all 16 paths by hand
        lat = build_lattice(2, 1.0)
        z = [zero_rv(lat), w_increment(lat, 0)]
        out = forward_integral(z, 0, 2)
        want = np.empty((4, 4))
        for w in range(4):
            want[w, :] = inc_of(w, 0, lat.inc) * inc_of(w, 1, lat.inc)
        assert np.allclose(full_table(out), want, atol=TOL)
        assert expectation(mul(out, out)) == pytest.approx(lat.dt ** 2, abs=TOL)

    def test_integrand_seeing_own_increment_rejected(self):
        lat = build_lattice(2, 1.0)
        z = [w_increment(lat, 0), zero_rv(lat)]
        with pytest.raises(errors.MeasurabilityViolation):
            forward_integral(z, 0, 2)

    def test_isometry_holds_exactly(self):
        lat = build_lattice(3, 1.0)
        z = [
            constant(lat, 0.7),
            add(w_increment(lat, 0), 0.3),
            mul(b_increment(lat, 2), w_increment(lat, 1)),
        ]
        out = forward_integral(z, 0, 3)
        want = sum(expectation(mul(zj, zj)) * lat.dt for zj in z)
        assert expectation(mul(out, out)) == pytest.approx(want, abs=TOL)
        # E[integral | B-only field] = 0
        proj = condexp(out, SigmaField(lat, 0, 0))
        assert proj.max_abs() <= TOL


class TestBackwardIntegral:
    def test_constant_integrand_telescopes(self):
        lat = build_lattice(3, 1.0)
        ones = [constant(lat, 1.0)] * 3
        for i in range(3):
            out = backward_integral(ones, i, 3)
            assert np.allclose(full_table(out), full_table(b_tail(lat, i)))

    def test_zero_integrand(self):
        lat = build_lattice(2, 1.0)
        assert backward_integral([zero_rv(lat)] * 2, 0, 2).max_abs() == 0.0

    def test_own_increment_rejected_but_future_ok(self):
        lat = build_lattice(2, 1.0)
        bad = [zero_rv(lat), b_increment(lat, 1)]
        with pytest.raises(errors.MeasurabilityViolation):
            backward_integral(bad, 0, 2)
        # g_0 = dB_1 is legal: integral dB_1 dB_0, second moment dt^2
        good = [b_increment(lat, 1), zero_rv(lat)]
        out = backward_integral(good, 0, 2)
        want = np.empty((4, 4))
        for b in range(4):
            want[:, b] = inc_of(b, 1, lat.inc) * inc_of(b, 0, lat.inc)
        assert np.allclose(full_table(out), want, atol=TOL)
        assert expectation(mul(out, out)) == pytest.approx(lat.dt ** 2, abs=TOL)

    def test_isometry_holds_exactly(self):
        lat = build_lattice(3, 1.0)
        g = [
            add(b_increment(lat, 2), 0.5),
            mul(w_increment(lat, 1), b_increment(lat, 2)),
            constant(lat, -1.25),
        ]
        out = backward_integral(g, 0, 3)
        want = sum(expectation(mul(gj, gj)) * lat.dt for gj in g)
        assert expectation(mul(out, out)) == pytest.approx(want, abs=TOL)


class TestFlipDerivative:
    def test_linearity_on_walk(self):
        lat = build_lattice(3, 1.0)
        for j in range(3):
            d = flip_derivative(w_level(lat, 3), j)
            assert np.allclose(full_table(d), 1.0, atol=TOL)

    def test_annihilates_backward_variables(self):
        lat = build_lattice(2, 1.0)
        assert flip_derivative(b_increment(lat, 0), 1).max_abs() == 0.0
        assert flip_derivative(b_increment(lat, 0), 0).max_abs() == 0.0

    def test_squared_walk_by_flip_table(self):
        # flip of W(T)^2 at slot 0 is 2 W(T) - 2 dW_0 = 2 dW_1 for N=2
        lat = build_lattice(2, 1.0)
        wt = w_level(lat, 2)
        d = flip_derivative(mul(wt, wt), 0)
        want = np.empty((4, 4))
        for w in range(4):
            want[w, :] = 2.0 * inc_of(w, 1, lat.inc)
        assert np.allclose(full_table(d), want, atol=TOL)

    def test_result_blind_to_flipped_increment(self):
        lat = build_lattice(3, 1.0)
        x = add(mul(w_level(lat, 3), w_level(lat, 2)), b_tail(lat, 1))
        for j in range(3):
            d = flip_derivative(x, j)
            assert not depends_on_w_bit(d, j)

    def test_index_guard(self):
        lat = build_lattice(2, 1.0)
        with pytest.raises(errors.IndexOutOfRange):
            flip_derivative(zero_rv(lat), 2)


class TestDependenceAudits:
    def test_w_dependence(self):
        lat = build_lattice(3, 1.0)
        x = w_increment(lat, 1)
        assert depends_on_w_bit(x, 1)
        assert not depends_on_w_bit(x, 0)
        assert not depends_on_w_bit(x, 2)

    def test_b_dependence(self):
        lat = build_lattice(3, 1.0)
        x = b_increment(lat, 1)
        assert depends_on_b_bit(x, 1)
        assert not depends_on_b_bit(x, 0)
        assert not depends_on_b_bit(x, 2)

    def test_measurable_wrt_is_value_based(self):
        lat = build_lattice(2, 1.0)
        # declared on the full field but genuinely only dW_0-dependent
        wide = MeasurableRV(
            SigmaField(lat, 2, 0),
            np.tile(w_increment(lat, 0).values, (2, 4)),
        )
        assert measurable_wrt(wide, SigmaField(lat, 1, 2))
        assert not measurable_wrt(wide, SigmaField(lat, 0, 2))


class TestTableOwnership:
    def test_writable_input_is_copied(self):
        lat = build_lattice(2, 1.0)
        f = time_field(lat, 1)
        arr = np.arange(4.0).reshape(f.table_shape)
        rv = MeasurableRV(f, arr)
        arr[:] = -1.0
        assert np.array_equal(rv.values, np.arange(4.0).reshape(f.table_shape))
        assert not rv.values.flags.writeable
        with pytest.raises(ValueError):
            rv.values[0, 0] = 5.0

    def test_results_are_read_only(self):
        lat = build_lattice(2, 1.0)
        x = add(mul(w_increment(lat, 0), b_increment(lat, 1)), 0.5)
        for rv in (x, neg(x), sub(x, 1.0), condexp(x, time_field(lat, 1)),
                   flip_derivative(x, 0), constant(lat, 2.0)):
            assert not rv.values.flags.writeable

    def test_built_tables_are_kept_not_copied(self):
        # traced numpy allocations: a copy would double the peak
        lat = build_lattice(8, 1.0)
        f = full_field(lat)
        x = MeasurableRV(f, np.ones(f.table_shape))
        small = constant(lat, 1.0)
        ops = {"add": lambda: add(x, x), "neg": lambda: neg(x),
               "scale": lambda: mul(x, 2.0), "lift": lambda: lift(small, f),
               "condexp": lambda: condexp(x, SigmaField(lat, 8, 1))}
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for name, op in ops.items():
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                out = op()
                _, peak = tracemalloc.get_traced_memory()
                assert peak - base <= 1.25 * out.values.nbytes, name
                del out
        finally:
            if started:
                tracemalloc.stop()
