"""Dense pair storage: a path is one (N+1, 2^M) array, a kernel one
(N+1, N, 2^M) array, and every whole-pair statistic one array expression.

The statistics are held to their per-entry references in `_oracles` with
exact equality, so the array expressions keep every digit.
"""

import numpy as np
import pytest

from _oracles import (
    entrywise_means,
    entrywise_node_gaps,
    entrywise_norm_squared,
    entrywise_pair_diff,
    entrywise_pair_sup_diff,
)
from mfbdsvie import errors
from mfbdsvie.fields import (
    AdaptedPath,
    BetaWeight,
    VolterraKernel,
    _mean_squares,
    _norm_squared,
    node_gaps,
    pair_diff,
    pair_sup_diff,
    zero_kernel,
    zero_path,
)
from mfbdsvie.lattice import LatticeSpec, MeasurableRV, time_field
from mfbdsvie.solver import means

# lanes 1-3 and N <= 5, at most 2^12 entries per table
LATTICES = [LatticeSpec(n_steps=n, horizon=0.8, lanes=lanes)
            for lanes in (1, 2, 3) for n in range(1, 6) if n * lanes <= 12]


def lattice_id(lat):
    return f"N{lat.n_steps}L{lat.lanes}"


def random_entry(lat, k, rng):
    # magnitudes spread over six decades, so the order of a sum shows
    f = time_field(lat, k)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    return MeasurableRV(f, scale * rng.standard_normal(f.table_shape))


def random_pair(lat, rng):
    n = lat.n_steps
    y = AdaptedPath(lat, [random_entry(lat, i, rng) for i in range(n + 1)])
    z = VolterraKernel(lat, [[random_entry(lat, j, rng) for j in range(n)]
                             for _ in range(n + 1)])
    return y, z


@pytest.mark.parametrize("lat", LATTICES, ids=lattice_id)
class TestAgainstEntrywise:
    def test_sup_diff_and_diff(self, lat):
        rng = np.random.default_rng(1)
        a, b = random_pair(lat, rng), random_pair(lat, rng)
        assert pair_sup_diff(*a, *b) == entrywise_pair_sup_diff(*a, *b)
        dy, dz = pair_diff(*a, *b)
        ry, rz = entrywise_pair_diff(*a, *b)
        assert np.array_equal(dy.values, ry.values)
        assert np.array_equal(dz.values, rz.values)

    @pytest.mark.parametrize("full_square", [False, True],
                             ids=["restricted", "full"])
    def test_norm_squared(self, lat, full_square):
        rng = np.random.default_rng(2)
        y, z = random_pair(lat, rng)
        w = BetaWeight(1.7)
        assert (_norm_squared(lat, _mean_squares(y.values),
                              _mean_squares(z.values), w)[full_square]
                == entrywise_norm_squared(y, z, w, full_square))

    def test_means(self, lat):
        y, z = random_pair(lat, np.random.default_rng(3))
        ey, ez = means(y, z)
        assert ((ey[..., 0].tolist(), ez[..., 0].tolist())
                == entrywise_means(y, z))

    def test_node_gaps(self, lat):
        rng = np.random.default_rng(4)
        (a, _), (b, _) = random_pair(lat, rng), random_pair(lat, rng)
        for absolute in (False, True):
            for start in range(lat.n_steps + 1):
                assert (node_gaps(a, b, start, absolute)
                        == entrywise_node_gaps(a, b, start, absolute))


@pytest.mark.parametrize("lat", LATTICES[:3] + LATTICES[-2:], ids=lattice_id)
class TestLayout:
    def test_rows_are_the_entry_tables(self, lat):
        y, z = random_pair(lat, np.random.default_rng(5))
        n = lat.n_steps
        assert y.values.shape == (n + 1, 1 << lat.n_bits)
        assert z.values.shape == (n + 1, n, 1 << lat.n_bits)
        for i in range(n + 1):
            assert np.array_equal(y.values[i], y[i].values.ravel())
            for j in range(n):
                assert np.array_equal(z.values[i, j], z.at(i, j).values.ravel())

    def test_entries_are_read_only_views(self, lat):
        y, z = random_pair(lat, np.random.default_rng(6))
        entries = [(y.values, e) for e in y.y]
        entries += [(z.values, e) for row in z.z for e in row]
        for values, entry in entries:
            assert not values.flags.writeable
            assert not entry.values.flags.writeable
            assert np.shares_memory(entry.values, values)
        assert [e.field for e in y.y] == [time_field(lat, i)
                                          for i in range(lat.n_steps + 1)]

    def test_array_built_equals_variable_built(self, lat):
        y, z = random_pair(lat, np.random.default_rng(7))
        y2 = AdaptedPath(lat, y.values.copy())
        z2 = VolterraKernel(lat, z.values.copy())
        assert np.array_equal(y2.values, y.values)
        assert np.array_equal(z2.values, z.values)
        for a, b in zip(y2.y + sum(z2.z, ()), y.y + sum(z.z, ())):
            assert a.field == b.field
            assert np.array_equal(a.values, b.values)

    def test_zero_pair(self, lat):
        n, size = lat.n_steps, 1 << lat.n_bits
        assert np.array_equal(zero_path(lat).values, np.zeros((n + 1, size)))
        assert np.array_equal(zero_kernel(lat).values,
                              np.zeros((n + 1, n, size)))


class TestConstruction:
    LAT = LatticeSpec(n_steps=2, horizon=1.0)

    def test_writable_array_is_copied(self):
        a = np.ones((3, 4))
        y = AdaptedPath(self.LAT, a)
        a[0, 0] = 5.0
        assert a.flags.writeable
        assert y[0].values[0, 0] == 1.0

    def test_read_only_array_is_kept(self):
        a = np.ones((3, 2, 4))
        a.flags.writeable = False
        assert VolterraKernel(self.LAT, a).values is a

    @pytest.mark.parametrize("shape", [(2, 4), (3, 8), (3, 2, 2)])
    def test_path_of_wrong_shape(self, shape):
        with pytest.raises(errors.ValidationError):
            AdaptedPath(self.LAT, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 4), (3, 3, 4), (2, 2, 4)])
    def test_kernel_of_wrong_shape(self, shape):
        with pytest.raises(errors.ValidationError):
            VolterraKernel(self.LAT, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        a, b = np.zeros((3, 4)), np.zeros((3, 2, 4))
        a[2, 1] = b[1, 0, 3] = bad
        with pytest.raises(errors.ValidationError, match=r"entry 2 "):
            AdaptedPath(self.LAT, a)
        with pytest.raises(errors.ValidationError, match=r"entry \(1, 0\)"):
            VolterraKernel(self.LAT, b)
        entries = list(AdaptedPath(self.LAT, np.zeros((3, 4))).y)
        entries[1] = MeasurableRV(entries[1].field, a[2].reshape(2, 2))
        with pytest.raises(errors.ValidationError):
            AdaptedPath(self.LAT, entries)
