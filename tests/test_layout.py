"""Table layout: bit views, lifts and mixed-field arithmetic against paths.

The lifts and the arithmetic are the per-entry algebra of
tests/_oracles.py, read at single paths with its `at`.
"""

import numpy as np
import pytest

from mfbdsvie import errors
from mfbdsvie.lattice import (
    LatticeSpec,
    MeasurableRV,
    SigmaField,
    bit_view,
    build_lattice,
    full_field,
)

from _oracles import (
    PathIndex,
    add,
    all_paths,
    at,
    b_increment,
    lift,
    lift_single_to_joint,
    mul,
    w_increment,
    zero_rv,
)

LAT = build_lattice(3, 1.0)
FIELDS = [SigmaField(LAT, a, b) for a in range(4) for b in range(4)]


def random_rv(field, seed):
    rng = np.random.default_rng(seed)
    return MeasurableRV(field, rng.standard_normal(field.table_shape))


def field_id(f):
    return f"({f.w_upto},{f.b_from})"


@pytest.mark.parametrize("f1", FIELDS, ids=field_id)
class TestAgainstPaths:
    def test_lift_reads_the_same_value_on_every_path(self, f1):
        x = random_rv(f1, 1)
        for f2 in FIELDS:
            if not f2.contains(f1):
                with pytest.raises(errors.MeasurabilityViolation):
                    lift(x, f2)
                continue
            lifted = lift(x, f2)
            assert lifted.field == f2
            for p in all_paths(LAT):
                assert at(lifted, p) == at(x, p)

    def test_mixed_field_arithmetic_is_pathwise(self, f1):
        x = random_rv(f1, 2)
        for k, f2 in enumerate(FIELDS):
            y = random_rv(f2, 3 + k)
            total, product = add(x, y), mul(x, y)
            assert total.field == product.field == f1.join(f2)
            for p in all_paths(LAT):
                assert at(total, p) == at(x, p) + at(y, p)
                assert at(product, p) == at(x, p) * at(y, p)


class TestBitView:
    def test_axis_order(self):
        # W increments w_upto-1..0, then B increments M-1..b_from
        f = full_field(LAT)

        def varying_axes(x):
            v = np.broadcast_to(bit_view(x, f), (2,) * 6)
            return [k for k in range(6)
                    if np.any(v.take(0, axis=k) != v.take(1, axis=k))]

        for j in range(LAT.n_bits):
            assert varying_axes(w_increment(LAT, j)) == [2 - j]
            assert varying_axes(b_increment(LAT, j)) == [5 - j]

    def test_full_field_of_largest_lattice_allocates_nothing(self):
        lat = build_lattice(14, 1.0)
        x = zero_rv(lat)
        v = bit_view(x, full_field(lat))
        assert v.ndim == 28
        assert v.size == 1
        assert np.shares_memory(v, x.values)


@pytest.mark.parametrize("lane", [0, 1])
def test_lift_single_to_joint_matches_path_enumeration(lane):
    single = build_lattice(2, 1.0)
    joint = LatticeSpec(n_steps=2, horizon=1.0, lanes=2)

    def own_bits(code):
        return sum(((code >> joint.bit_of(s, lane)) & 1) << s
                   for s in range(single.n_steps))

    for a in range(3):
        for b in range(3):
            f = SigmaField(single, a, b)
            rv = random_rv(f, 10 * a + b)
            table = lift_single_to_joint(rv, single, joint, lane)
            assert table.shape == (1 << joint.n_bits, 1 << joint.n_bits)
            for w in range(1 << joint.n_bits):
                for bb in range(1 << joint.n_bits):
                    expected = at(rv, PathIndex(own_bits(w), own_bits(bb)))
                    assert table[w, bb] == expected
