"""Coefficient families (f, g) and terminal data for the equation.

A driver evaluates the pair of maps

    f(t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev)
    g(t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev)

where z is the kernel value at (t, s), z_rev the value at the swapped
indices (s, t), and the mean_* slots receive expectations of the same
quantities.  Evaluation is vectorised: state arguments may be NumPy
arrays (pathwise tables) or scalars, and t may be an array of row times
that broadcasts like the states, since one call serves every row of a
map at one slot; s is a grid time there.  The comparison audit calls a
driver once on arrays of sampled (t, s) and states, one entry a sample.

Families carry their own analytic constants: lipschitz_c dominates the
squared-difference bound |f(..1) - f(..2)|^2 <= c * sum |delta args|^2,
lipschitz_alpha the same for g, and both also dominate the partial
derivative magnitudes.  `closed_form` holds the family's own (c, alpha);
the CLI refuses a declared constant below it before any solve, while
the Python API trusts declared constants.

The contraction threshold: with the squared-form constants the map of
the fixed-point construction contracts once

    beta > (20 c (T+1) + 2 alpha) / (1 - 2 alpha (T+2)),

which needs alpha < 1/(2(T+2)); `beta_default` returns a safety
multiple of the threshold and `gamma_theory` the resulting factor
gamma = (20 c (T+1) + 2 alpha)/beta + 2 alpha (T+2) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AlphaTooLarge,
    PartialsUnavailable,
    ValidationError,
)
from .lattice import LatticeSpec, check_lanes


def _as_time_fn(x) -> Callable[[float], float]:
    if callable(x):
        return x
    v = float(x)
    return lambda t: v


def _as_surface_fn(x) -> Callable[[float, float], float]:
    if x is None:
        return lambda t, s: 0.0
    if callable(x):
        return x
    v = float(x)
    return lambda t, s: v


class DriverPartials(NamedTuple):
    """Twelve first derivatives: six for f, six for g, argument order
    (y, z, z_rev, mean_y, mean_z, mean_z_rev)."""

    f_y: float
    f_z: float
    f_z_rev: float
    f_mean_y: float
    f_mean_z: float
    f_mean_z_rev: float
    g_y: float
    g_z: float
    g_z_rev: float
    g_mean_y: float
    g_mean_z: float
    g_mean_z_rev: float


ARG_NAMES = ("y", "z", "z_rev", "mean_y", "mean_z", "mean_z_rev")


class DriverSpec:
    """Base class: families implement f_values / g_values (+ partials)."""

    family = "abstract"

    lipschitz_c: float
    lipschitz_alpha: float

    def f_values(self, t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev):
        raise NotImplementedError

    def g_values(self, t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev):
        raise NotImplementedError

    def partials(self, t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev):
        raise PartialsUnavailable(
            f"family '{self.family}' has no analytic partial derivatives"
        )


class LinearDriver(DriverSpec):
    """Affine coefficients plus a deterministic source phi(t, s).

    f = sum f_coef[arg] * arg + f_source(t, s), same shape for g.
    """

    family = "linear"

    def __init__(self, f=None, g=None, f_source=None, g_source=None,
                 c=None, alpha=None):
        self.f_coefs = {k: float((f or {}).get(k, 0.0)) for k in ARG_NAMES}
        self.g_coefs = {k: float((g or {}).get(k, 0.0)) for k in ARG_NAMES}
        unknown = set(f or {}) | set(g or {})
        if unknown - set(ARG_NAMES):
            raise ValidationError(
                f"unknown coefficient keys {sorted(unknown - set(ARG_NAMES))}"
            )
        if not math.isfinite(_affine_constant([*self.f_coefs.values(),
                                                *self.g_coefs.values()])):
            raise ValidationError("coefficients whose squares overflow a float")
        self.f_source = _as_surface_fn(f_source)
        self.g_source = _as_surface_fn(g_source)
        self.closed_form = (_affine_constant(self.f_coefs.values()),
                            _affine_constant(self.g_coefs.values()))
        self.lipschitz_c = self.closed_form[0] if c is None else float(c)
        self.lipschitz_alpha = (self.closed_form[1] if alpha is None
                                else float(alpha))

    def f_values(self, t, s, *args):
        out = self.f_source(t, s)
        for k, a in zip(ARG_NAMES, args):
            c = self.f_coefs[k]
            if c != 0.0:
                out = out + c * a
        return out

    def g_values(self, t, s, *args):
        out = self.g_source(t, s)
        for k, a in zip(ARG_NAMES, args):
            c = self.g_coefs[k]
            if c != 0.0:
                out = out + c * a
        return out

    def partials(self, t, s, *args):
        return DriverPartials(
            *[self.f_coefs[k] for k in ARG_NAMES],
            *[self.g_coefs[k] for k in ARG_NAMES],
        )


def _affine_constant(coefs) -> float:
    """Smallest constant serving both bound forms for affine maps."""
    coefs = [abs(c) for c in coefs]
    return max(sum(c * c for c in coefs), max(coefs, default=0.0))


@dataclass(frozen=True)
class ZPart:
    """A scalar map of z used by the risk family, with structure flags.

    Kinds: zero, linear (k1 z), affine (k0 + k1 z), abs (k1 |z|),
    smooth_abs (k1 (sqrt(1+z^2) - 1)).  Flags are derived from the kind
    and the signs of k0 and k1, which must be finite.
    """

    kind: str = "zero"
    k0: float = 0.0
    k1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "affine", "abs", "smooth_abs"):
            raise ValidationError(f"unknown z-map kind '{self.kind}'")
        if self.kind in ("zero", "linear", "abs", "smooth_abs") and self.k0:
            raise ValidationError(f"kind '{self.kind}' takes no constant term")
        if not (math.isfinite(self.k0) and math.isfinite(self.k1)):
            raise ValidationError(f"z-map '{self.kind}' needs finite k0 and "
                                  f"k1, got {self.k0} and {self.k1}")

    def value(self, z):
        if self.kind == "zero":
            return np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0
        if self.kind == "linear":
            return self.k1 * np.asarray(z, dtype=float)
        if self.kind == "affine":
            return self.k0 + self.k1 * np.asarray(z, dtype=float)
        if self.kind == "abs":
            return self.k1 * np.abs(z)
        return self.k1 * (np.sqrt(1.0 + np.asarray(z, dtype=float) ** 2) - 1.0)

    def deriv(self, z):
        if self.kind in ("zero",):
            return np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0
        if self.kind in ("linear", "affine"):
            return self.k1 * np.ones_like(np.asarray(z, dtype=float)) if np.ndim(z) else self.k1
        if self.kind == "abs":
            raise PartialsUnavailable("|z| has no derivative at 0")
        zz = np.asarray(z, dtype=float)
        return self.k1 * zz / np.sqrt(1.0 + zz ** 2)

    @property
    def lipschitz(self) -> float:
        return abs(self.k1)

    @property
    def smooth(self) -> bool:
        return self.kind != "abs"

    @property
    def convex(self) -> bool:
        if self.kind in ("zero", "linear", "affine"):
            return True
        return self.k1 >= 0.0

    @property
    def positively_homogeneous(self) -> bool:
        return self.kind in ("zero", "linear", "abs")

    @property
    def subadditive(self) -> bool:
        if self.kind in ("zero", "linear"):
            return True
        if self.kind == "abs":
            return self.k1 >= 0.0
        if self.kind == "affine":
            return self.k0 >= 0.0
        return False

    @property
    def additive(self) -> bool:
        return self.kind in ("zero", "linear")


class RiskDriver(DriverSpec):
    """Discounting family: f = -r(s)/2 (y + mean_y) + h(z), g = g(z).

    r is a deterministic rate as a function of time; h and g are ZPart
    maps, so g depends on z only by construction.  With no rate_bound the
    rate is probed on [0, 8], as no grid is known here; `risk.RiskSpec`
    and the CLI read it at the grid nodes instead.
    """

    family = "risk"

    def __init__(self, rate, h: ZPart | None = None, g: ZPart | None = None,
                 rate_bound: float | None = None,
                 c: float | None = None, alpha: float | None = None):
        self.rate = _as_time_fn(rate)
        self.h = h or ZPart()
        self.g = g or ZPart()
        if rate_bound is None:  # the probe: no grid known
            rate_bound = max(abs(self.rate(t)) for t in np.linspace(0.0, 8.0, 257))
        self.rate_bound = float(rate_bound)
        half = self.rate_bound / 2.0
        lh, lg = self.h.lipschitz, self.g.lipschitz
        analytic_c = max(2.0 * half * half + lh * lh, half, lh)
        analytic_a = max(lg * lg, lg)
        if not math.isfinite(analytic_c + analytic_a):
            raise ValidationError("a rate bound or z-map slopes whose squares "
                                  "overflow a float")
        self.closed_form = (analytic_c, analytic_a)
        self.lipschitz_c = float(c) if c is not None else analytic_c
        self.lipschitz_alpha = float(alpha) if alpha is not None else analytic_a

    def f_values(self, t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev):
        return -self.rate(s) / 2.0 * (y + mean_y) + self.h.value(z)

    def g_values(self, t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev):
        return self.g.value(z)

    def partials(self, t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev):
        if not (self.h.smooth and self.g.smooth):
            raise PartialsUnavailable("risk family needs smooth h and g")
        half = -self.rate(s) / 2.0
        zero = 0.0 if np.ndim(z) == 0 else np.zeros_like(np.asarray(z, float))
        one = 1.0 if np.ndim(z) == 0 else np.ones_like(np.asarray(z, float))
        return DriverPartials(
            half * one, self.h.deriv(z), zero, half * one, zero, zero,
            zero, self.g.deriv(z), zero, zero, zero, zero,
        )


class CustomDriver(DriverSpec):
    """User-supplied vectorised callables with declared constants."""

    family = "custom"

    def __init__(self, f, g, c, alpha, partials=None):
        self._f = f
        self._g = g
        self._partials = partials
        self.lipschitz_c = float(c)
        self.lipschitz_alpha = float(alpha)

    def f_values(self, t, s, *args):
        return self._f(t, s, *args)

    def g_values(self, t, s, *args):
        return self._g(t, s, *args)

    def partials(self, t, s, *args):
        if self._partials is None:
            raise PartialsUnavailable("custom driver declared no partials")
        return DriverPartials(*self._partials(t, s, *args))


def alpha_limit(horizon: float) -> float:
    return 1.0 / (2.0 * (horizon + 2.0))


def contraction_threshold(d: DriverSpec, horizon: float) -> float:
    """Smallest beta above which the fixed-point map contracts."""
    if d.lipschitz_alpha >= alpha_limit(horizon):
        raise AlphaTooLarge(
            f"alpha={d.lipschitz_alpha} >= 1/(2(T+2))={alpha_limit(horizon)}"
        )
    num = 20.0 * d.lipschitz_c * (horizon + 1.0) + 2.0 * d.lipschitz_alpha
    return num / (1.0 - 2.0 * d.lipschitz_alpha * (horizon + 2.0))


def beta_default(d: DriverSpec, horizon: float, safety: float = 1.5) -> float:
    """safety * threshold; plain safety when both constants vanish."""
    if not safety > 1.0:
        raise ValidationError(f"safety={safety} must exceed 1")
    thr = contraction_threshold(d, horizon)
    return safety * thr if thr > 0.0 else safety


def gamma_theory(d: DriverSpec, horizon: float, beta: float) -> float:
    num = 20.0 * d.lipschitz_c * (horizon + 1.0) + 2.0 * d.lipschitz_alpha
    return num / beta + 2.0 * d.lipschitz_alpha * (horizon + 2.0)


# -- terminal data -----------------------------------------------------------

SMOOTH_KINDS = {
    "tanh": (np.tanh, lambda w: 1.0 / np.cosh(w) ** 2),
    "soft_abs": (
        lambda w: np.sqrt(1.0 + w ** 2) - 1.0,
        lambda w: w / np.sqrt(1.0 + w ** 2),
    ),
}


class TerminalSpec:
    """Terminal data zeta(t) = phi(t) + theta(t) W(T) + smooth parts.

    Each smooth part is coef(t) * S(W(T)) with S from a whitelisted
    smooth set; every value is a functional of the terminal walk value,
    so measurability against the terminal field holds structurally.
    """

    def __init__(self, phi=0.0, theta=None, smooth: Sequence[tuple] = ()):
        self.phi = _as_time_fn(phi)
        self.theta = _as_time_fn(theta) if theta is not None else None
        parts = []
        for kind, coef in smooth:
            if not isinstance(kind, str) or kind not in SMOOTH_KINDS:
                raise ValidationError(f"unknown smooth terminal kind '{kind}'")
            parts.append((kind, _as_time_fn(coef)))
        self.smooth = tuple(parts)

    @property
    def family(self) -> str:
        if self.smooth:
            return "smooth"
        return "affine" if self.theta is not None else "deterministic"

    def value(self, t: float, w):
        """zeta(t) as a function of the terminal walk value w."""
        out = self.phi(t) + np.zeros_like(np.asarray(w, dtype=float))
        if self.theta is not None:
            out = out + self.theta(t) * np.asarray(w, dtype=float)
        for kind, coef in self.smooth:
            out = out + coef(t) * SMOOTH_KINDS[kind][0](np.asarray(w, dtype=float))
        return out

    # algebra used by the risk axioms ------------------------------------

    def scaled(self, lam: float) -> TerminalSpec:
        return TerminalSpec(
            phi=lambda t: lam * self.phi(t),
            theta=None if self.theta is None else (lambda t: lam * self.theta(t)),
            smooth=[(k, (lambda c: lambda t: lam * c(t))(c)) for k, c in self.smooth],
        )

    def shifted(self, const: float) -> TerminalSpec:
        return TerminalSpec(
            phi=lambda t: self.phi(t) + const,
            theta=self.theta,
            smooth=self.smooth,
        )

    def plus(self, other: TerminalSpec) -> TerminalSpec:
        th = None
        if self.theta is not None or other.theta is not None:
            a = self.theta or (lambda t: 0.0)
            b = other.theta or (lambda t: 0.0)
            th = lambda t: a(t) + b(t)
        return TerminalSpec(
            phi=lambda t: self.phi(t) + other.phi(t),
            theta=th,
            smooth=tuple(self.smooth) + tuple(other.smooth),
        )

    def negated(self) -> TerminalSpec:
        return self.scaled(-1.0)

    def mixed(self, other: TerminalSpec, lam: float) -> TerminalSpec:
        return self.scaled(lam).plus(other.scaled(1.0 - lam))


@lru_cache(maxsize=64)
def terminal_walk_values(lat: LatticeSpec, lane: int = 0) -> np.ndarray:
    """W(T) of one lane as a vector over all W sign codes (one shared,
    write-locked array per lattice and lane)."""
    codes = np.arange(1 << lat.n_bits)
    total = np.zeros(codes.shape, dtype=float)
    for step in range(lat.n_steps):
        j = lat.bit_of(step, lane)
        total += 2.0 * ((codes >> j) & 1) - 1.0
    walk = lat.inc * total
    walk.flags.writeable = False
    return walk


def terminal_table(term: TerminalSpec, lat: LatticeSpec, lane: int = 0
                   ) -> np.ndarray:
    """zeta(t_i) at every node i as one write-locked (N + 1, 2^M) table,
    row i a function of the lane's W(T) on the shared walk; a lane outside
    0..lanes - 1 raises IndexOutOfRange."""
    check_lanes(lat, lane)
    w = terminal_walk_values(lat, lane)
    table = np.empty((lat.n_steps + 1, len(w)))
    for i, row in enumerate(table):
        with np.errstate(over="ignore", invalid="ignore"):
            row[:] = term.value(lat.node(i), w)
        if not np.isfinite(row).all():
            raise ValidationError(f"terminal at node {i} overflows a float")
    table.flags.writeable = False
    return table
