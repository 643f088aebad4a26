"""Solution-space checks: extension identity, norms, norm equivalence."""

import math

import numpy as np
import pytest

from mfbdsvie import errors
from mfbdsvie.fields import (
    AdaptedPath,
    BetaWeight,
    VolterraKernel,
    l_beta_norm,
    m_beta_norm,
    m_extend,
    m_identity_residual,
    zero_kernel,
    zero_path,
)
from mfbdsvie.lattice import (
    MeasurableRV,
    SigmaField,
    build_lattice,
    time_field,
)

from _oracles import (
    PathIndex,
    add,
    at,
    b_increment,
    condexp,
    constant,
    max_abs,
    measurable_wrt,
    mul,
    w_increment,
    w_level,
)

TOL = 1e-12


def random_adapted_path(lat, rng, scale=1.0):
    ys = []
    for i in range(lat.n_steps + 1):
        f = time_field(lat, i)
        ys.append(MeasurableRV(f, scale * rng.standard_normal(f.table_shape)))
    return AdaptedPath(lat, ys)


def random_delta_kernel(lat, rng, scale=1.0):
    rows = []
    for i in range(lat.n_steps + 1):
        row = []
        for j in range(lat.n_steps):
            f = time_field(lat, j)
            if j >= i:
                row.append(MeasurableRV(f, scale * rng.standard_normal(f.table_shape)))
            else:
                row.append(condexp(constant(lat, 0.0), f))
        rows.append(row)
    return VolterraKernel(lat, rows)


class TestMExtend:
    def test_deterministic_path_gives_zero_extension(self):
        lat = build_lattice(3, 1.0)
        ys = [condexp(constant(lat, 2.5), time_field(lat, i))
              for i in range(4)]
        z = m_extend(AdaptedPath(lat, ys), zero_kernel(lat))
        for i in range(4):
            for j in range(i):
                assert max_abs(z.at(i, j)) <= TOL

    def test_walk_path_has_unit_extension(self):
        lat = build_lattice(3, 1.0)
        ys = [w_level(lat, i) for i in range(4)]
        ys = [condexp(y, time_field(lat, i)) for i, y in enumerate(ys)]
        z = m_extend(AdaptedPath(lat, ys), zero_kernel(lat))
        for i in range(4):
            for j in range(i):
                assert np.allclose(z.at(i, j).values, 1.0, atol=TOL)

    def test_mixed_increment_extension_from_enumeration(self):
        # Y = dW_0 dB_1 on N=2: the slot-0 representation coefficient is
        # E[Y dW_0 | (0,0)]/dt = E[dW_0^2] dB_1 / dt = dB_1, and the
        # representation re-sums Y exactly; checked against all 16 paths
        from _oracles import representation_row

        lat = build_lattice(2, 1.0)
        y2 = mul(w_increment(lat, 0), b_increment(lat, 1))
        z0 = representation_row(y2, 0)
        z1 = representation_row(y2, 1)
        base = condexp(y2, SigmaField(lat, 0, 0))
        want = b_increment(lat, 1)
        resum = add(add(base, mul(z0, w_increment(lat, 0))),
                    mul(z1, w_increment(lat, 1)))
        for p in [PathIndex(w, b) for w in range(4) for b in range(4)]:
            assert at(z0, p) == pytest.approx(at(want, p), abs=TOL)
            assert at(resum, p) == pytest.approx(at(y2, p), abs=TOL)

    def test_identity_resums_exactly(self):
        lat = build_lattice(3, 0.75)
        rng = np.random.default_rng(11)
        y = random_adapted_path(lat, rng)
        z = m_extend(y, random_delta_kernel(lat, rng))
        assert m_identity_residual(y, z) <= TOL

    def test_extension_entries_pass_dependence_audit(self):
        lat = build_lattice(3, 1.0)
        rng = np.random.default_rng(3)
        y = random_adapted_path(lat, rng)
        z = m_extend(y, random_delta_kernel(lat, rng))
        for i in range(4):
            for j in range(3):
                assert measurable_wrt(z.at(i, j), time_field(lat, j))


class TestNorms:
    def test_zero_pair_has_zero_norm(self):
        lat = build_lattice(2, 1.0)
        w = BetaWeight(1.0)
        assert m_beta_norm(zero_path(lat), zero_kernel(lat), w) == 0.0
        assert l_beta_norm(zero_path(lat), zero_kernel(lat), w) == 0.0

    def test_unit_path_hand_sum(self):
        # N=1, T=1, beta=0: two nodes with weight dt=1 give sqrt(2)
        lat = build_lattice(1, 1.0)
        ys = [condexp(constant(lat, 1.0), time_field(lat, i))
              for i in range(2)]
        got = m_beta_norm(AdaptedPath(lat, ys), zero_kernel(lat), BetaWeight(0.0))
        assert got == pytest.approx(math.sqrt(2.0), abs=TOL)

    def test_doubling_upper_triangle_increases_norm(self):
        lat = build_lattice(2, 1.0)
        rng = np.random.default_rng(5)
        y = random_adapted_path(lat, rng)
        z1 = m_extend(y, random_delta_kernel(lat, rng))
        rows = [
            [mul(z1.at(i, j), 2.0 if j >= i else 1.0) for j in range(2)]
            for i in range(3)
        ]
        z2 = VolterraKernel(lat, rows)
        w = BetaWeight(0.5)
        assert m_beta_norm(y, z2, w) > m_beta_norm(y, z1, w)

    def test_norms_agree_when_kernel_lives_on_upper_triangle(self):
        lat = build_lattice(3, 1.0)
        rng = np.random.default_rng(9)
        y = random_adapted_path(lat, rng)
        z = random_delta_kernel(lat, rng)
        w = BetaWeight(2.0)
        assert l_beta_norm(y, z, w) == pytest.approx(m_beta_norm(y, z, w), abs=TOL)

    def test_two_sided_equivalence_on_extended_pairs(self):
        lat = build_lattice(3, 1.0)
        w = BetaWeight(1.5)
        rng = np.random.default_rng(13)
        for _ in range(10):
            y = random_adapted_path(lat, rng)
            z = m_extend(y, random_delta_kernel(lat, rng))
            m2 = m_beta_norm(y, z, w) ** 2
            l2 = l_beta_norm(y, z, w) ** 2
            assert m2 <= l2 + 1e-10
            assert l2 <= 2.0 * m2 + 1e-10

    def test_negative_beta_rejected(self):
        with pytest.raises(errors.ValidationError):
            BetaWeight(-1.0)


class TestValidation:
    def test_path_needs_time_fields(self):
        lat = build_lattice(2, 1.0)
        bad = [constant(lat, 1.0)] * 3
        with pytest.raises(errors.MeasurabilityViolation):
            AdaptedPath(lat, bad)

    def test_kernel_row_length_checked(self):
        lat = build_lattice(2, 1.0)
        with pytest.raises(errors.ValidationError):
            VolterraKernel(lat, [[]] * 3)


class TestLowerTriangleControl:
    def test_kernel_second_moment_bounded_by_path(self):
        # the representation ties lower-triangle mass to Y mass:
        # sum_j E[Z_ij^2] dt = E[Y_i^2] - E[E[Y_i|(0,0)]^2]
        lat = build_lattice(3, 1.0)
        rng = np.random.default_rng(17)
        y = random_adapted_path(lat, rng)
        z = m_extend(y, random_delta_kernel(lat, rng))
        from _oracles import expectation
        for i in range(1, 4):
            lhs = sum(
                expectation(mul(z.at(i, j), z.at(i, j))) * lat.dt
                for j in range(i)
            )
            y0 = condexp(y[i], SigmaField(lat, 0, 0))
            rhs = expectation(mul(y[i], y[i])) - expectation(mul(y0, y0))
            assert lhs == pytest.approx(rhs, abs=1e-11)


class TestNodeGaps:
    """Per-node worst gaps against a path-by-path enumeration."""

    def test_signed_and_absolute_gaps(self):
        from mfbdsvie.fields import node_gaps
        from _oracles import all_paths

        lat = build_lattice(2, 1.0)
        rng = np.random.default_rng(11)
        a, b = random_adapted_path(lat, rng), random_adapted_path(lat, rng)
        for absolute in (False, True):
            for start in range(lat.n_steps + 1):
                rows = node_gaps(a, b, from_node=start, absolute=absolute)
                assert [i for i, _ in rows] == list(range(start, 3))
                for i, gap in rows:
                    d = [at(a[i], p) - at(b[i], p) for p in all_paths(lat)]
                    want = max(abs(v) for v in d) if absolute else max(d)
                    assert gap == want

    def test_equal_profiles_give_zero(self):
        from mfbdsvie.fields import node_gaps

        lat = build_lattice(2, 1.0)
        a = random_adapted_path(lat, np.random.default_rng(12))
        assert node_gaps(a, a) == [(0, 0.0), (1, 0.0), (2, 0.0)]


class TestOneLattice:
    """Pair and path comparisons refuse operands on different lattices, as
    `m_extend` does, before any arithmetic."""

    @staticmethod
    def zeros(n_steps, horizon):
        lat = build_lattice(n_steps, horizon)
        return zero_path(lat), zero_kernel(lat)

    @pytest.mark.parametrize("other", [(3, 2.0), (4, 1.0)],
                             ids=["horizon", "steps"])
    def test_refused(self, other):
        from mfbdsvie.fields import node_gaps, pair_diff, pair_sup_diff

        y1, z1 = self.zeros(3, 1.0)
        y2, z2 = self.zeros(*other)
        for call in (lambda: pair_diff(y1, z1, y2, z2),
                     lambda: pair_sup_diff(y1, z1, y2, z2),
                     lambda: pair_sup_diff(y1, z2, y1, z1),
                     lambda: node_gaps(y1, y2)):
            with pytest.raises(errors.LatticeMismatch):
                call()

    def test_one_lattice_compares(self):
        from mfbdsvie.fields import node_gaps, pair_diff, pair_sup_diff

        y, z = self.zeros(3, 1.0)
        assert pair_sup_diff(y, z, *self.zeros(3, 1.0)) == 0.0
        assert pair_diff(y, z, y, z)[0].lattice == y.lattice
        assert [gap for _, gap in node_gaps(y, y)] == [0.0] * 4
