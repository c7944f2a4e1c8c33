"""Model coefficients, their validity constraints, and the elastic-constant maps.

``ModelParams1D`` carries the reduced one-dimensional model: director elastic
constants k1, k2, k3, the cholesteric wavenumber sigma, the layer wavenumber q,
and the smectic bulk/elastic coefficients, all dimensionless.  It is an
immutable value; derived quantities are recomputed on demand.

The tensor-model constants enter only as loose floats: the uniaxial order
parameter from the nematic bulk coefficients (:func:`compute_s_plus`), the
validity of the nematic elastic constants
(:func:`validate_elastic_constants`), and the director elastic constants
that the uniaxial lift of the tensor elastic energy induces
(:func:`map_to_oseen_frank`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

#: Tolerance of the integer check in the layer-commensurability constraint.
COMMENSURABILITY_TOL = 1e-9


class ElasticVerdict(NamedTuple):
    """Outcome of the elastic-constant validity check."""

    valid: bool
    violation: str | None


def validate_elastic_constants(eta1: float, eta2: float, eta24: float) -> ElasticVerdict:
    """Check that (eta1, eta2, eta24) give a positive-definite gradient energy.

    The three inequalities are checked in order and the first failure is
    named in the verdict:

    * ``eta1 > 0``
    * ``0 < eta24 < 3*eta1``
    * ``5*eta1 + 10*eta2 - 9*eta24 > 0``

    Raises
    ------
    ValueError
        If any input is not finite.
    """
    vals = (eta1, eta2, eta24)
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"elastic constants must be finite, got {vals}")
    if not eta1 > 0:
        return ElasticVerdict(False, f"eta1 > 0 violated (eta1 = {eta1})")
    if not eta24 > 0:
        return ElasticVerdict(False, f"eta24 > 0 violated (eta24 = {eta24})")
    if not eta24 < 3 * eta1:
        return ElasticVerdict(False, f"eta24 < 3*eta1 violated (eta24 = {eta24}, 3*eta1 = {3 * eta1})")
    combo = 5 * eta1 + 10 * eta2 - 9 * eta24
    if not combo > 0:
        return ElasticVerdict(False, f"5*eta1 + 10*eta2 - 9*eta24 > 0 violated (value = {combo})")
    return ElasticVerdict(True, None)


def compute_s_plus(A: float, B: float, C: float) -> float:
    """Equilibrium uniaxial order parameter (B + sqrt(B^2 - 24*A*C)) / (4*C).

    Stationary point of the uniaxial bulk profile
    g(s) = A*s^2/3 - 2*B*s^3/27 + C*s^4/9, and its global minimum whenever
    A < B^2/(27*C).

    Raises
    ------
    ValueError
        If ``C <= 0`` or the discriminant ``B^2 - 24*A*C`` is negative
        (no real uniaxial minimizer).
    """
    if not (math.isfinite(A) and math.isfinite(B) and math.isfinite(C)):
        raise ValueError("bulk coefficients must be finite")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    disc = B * B - 24.0 * A * C
    if disc < 0:
        raise ValueError(f"negative discriminant B^2 - 24*A*C = {disc}: no real uniaxial minimizer")
    return (B + math.sqrt(disc)) / (4.0 * C)


@dataclass(frozen=True)
class OFConstants:
    """Director (splay/twist/bend/saddle-splay) elastic constants.

    The constants must satisfy the chain
    ``k1 = k3 >= k2 >= k2 + k4 >= C6_floor > 0 >= k4``; ``C6_floor`` is the
    positive lower bound appearing in the coercivity argument and defaults to
    its largest admissible value ``k2 + k4``.  The degenerate boundary
    ``k4 = 0`` (eta24 = eta1) is admitted.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    C6_floor: float

    def __post_init__(self) -> None:
        violations = []
        if self.k1 != self.k3:
            violations.append(f"k1 = k3 violated (k1 = {self.k1}, k3 = {self.k3})")
        if not self.k1 >= self.k2:
            violations.append(f"k1 >= k2 violated (k1 = {self.k1}, k2 = {self.k2})")
        if self.k4 > 0:
            violations.append(f"k4 = {self.k4} > 0 violates 0 >= k4")
        if not self.k2 + self.k4 > 0:
            violations.append(f"k2 + k4 > 0 violated (k2 + k4 = {self.k2 + self.k4})")
        if not 0 < self.C6_floor <= self.k2 + self.k4:
            violations.append(
                f"C6_floor must lie in (0, k2 + k4] (C6_floor = {self.C6_floor}, k2 + k4 = {self.k2 + self.k4})"
            )
        if violations:
            raise ValueError("; ".join(violations))


def map_to_oseen_frank(eta1: float, eta2: float, eta24: float, s_plus: float) -> OFConstants:
    """Map tensor elastic constants to director elastic constants.

    On the uniaxial manifold with order parameter ``s_plus``:
    ``k1 = k3 = s_plus^2*(eta1 + eta2)/2``, ``k2 = s_plus^2*eta1``,
    ``k4 = s_plus^2*(eta24 - eta1)/2``.

    Raises
    ------
    ValueError
        If ``s_plus <= 0`` or the mapped constants violate the chain
        enforced by :class:`OFConstants` (the failed inequality is named).
    """
    if not s_plus > 0:
        raise ValueError(f"s_plus must be positive, got {s_plus}")
    s2 = s_plus * s_plus
    k1 = k3 = s2 * (eta1 + eta2) / 2.0
    k2 = s2 * eta1
    k4 = s2 * (eta24 - eta1) / 2.0
    return OFConstants(k1=k1, k2=k2, k3=k3, k4=k4, C6_floor=k2 + k4)


@dataclass(frozen=True)
class ModelParams1D:
    """Coefficients of the reduced one-dimensional free energy.

    Defaults reproduce the standard demonstration set used throughout the
    test suite: one-constant elastic k = 0.025, sigma = q = 4 on a 2*pi cell,
    quartic smectic bulk f = 10 with d = alpha2*(T - T2star), layer rigidity
    lambda1 = lambda2 = 0.001, preferred tilt theta0 = pi/9.

    The layer wavenumber must be commensurate: q*h/(2*pi) is a positive
    integer n0 (checked to 1e-9); every closed-form spectrum and the exact
    annihilation of the layer penalty on mode n0 rely on it.
    """

    k1: float = 0.025
    k2: float = 0.025
    k3: float = 0.025
    sigma: float = 4.0
    q: float = 4.0
    h: float = TWO_PI
    d: float = -0.5
    e: float = 0.0
    f: float = 10.0
    lambda1: float = 0.001
    lambda2: float = 0.001
    theta0: float = math.pi / 9
    alpha2: float = 1.0
    T2star: float = -10.0

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3", "f", "h", "q", "alpha2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be nonnegative and finite, got {v}")
        for name in ("sigma", "d", "e", "T2star"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0 < self.theta0 < math.pi / 2:
            raise ValueError(f"theta0 must lie in (0, pi/2), got {self.theta0}")
        ratio = self.q * self.h / TWO_PI
        n0 = round(ratio)
        if n0 < 1 or abs(ratio - n0) > COMMENSURABILITY_TOL * max(1.0, abs(n0)):
            raise ValueError(
                f"incommensurate layer wavenumber: q*h/(2*pi) = {ratio!r} is not a positive integer"
            )

    @property
    def n0(self) -> int:
        """Index of the layer mode: q*h/(2*pi)."""
        return round(self.q * self.h / TWO_PI)

    def with_d(self, d: float) -> "ModelParams1D":
        return replace(self, d=d)

    def at_temperature(self, T: float) -> "ModelParams1D":
        """Parameters with d set from the temperature map d = alpha2*(T - T2star)."""
        return replace(self, d=d_from_temperature(T, self))


def d_from_temperature(T: float, params: ModelParams1D) -> float:
    """Temperature map d = alpha2*(T - T2star)."""
    return params.alpha2 * (T - params.T2star)


def temperature_from_d(d: float, params: ModelParams1D) -> float:
    """Inverse of :func:`d_from_temperature`."""
    return params.T2star + d / params.alpha2


# --- configuration file format ------------------------------------------------

_FLOAT_KEYS = (
    "k1", "k2", "k3", "sigma", "q", "h", "d", "e", "f",
    "lambda1", "lambda2", "theta0", "alpha2", "T2star", "tol_grad",
)
_INT_KEYS = ("N", "max_iters")
CONFIG_KEYS = _FLOAT_KEYS + _INT_KEYS


@dataclass(frozen=True)
class RunConfig:
    """A parameter set plus the discretization/solver knobs from a config file."""

    params: ModelParams1D = ModelParams1D()
    n_modes: int = 64
    tol_grad: float = 1e-8
    max_iters: int = 1_000_000

    def __post_init__(self) -> None:
        if self.n_modes < 2 or self.n_modes % 2 != 0:
            raise ValueError(f"N must be an even integer >= 2, got {self.n_modes}")
        if not self.tol_grad > 0:
            raise ValueError(f"tol_grad must be positive, got {self.tol_grad}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a :class:`RunConfig`.

    Blank lines and ``#`` comments are ignored; unknown keys are a hard
    error.  Missing keys fall back to the defaults of :class:`ModelParams1D`
    and :class:`RunConfig`.
    """
    seen: dict[str, float] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                seen[key] = int(value)
            else:
                seen[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {value!r}") from exc
    param_kw = {k: v for k, v in seen.items() if k in _FLOAT_KEYS and k != "tol_grad"}
    run_kw = {}
    if "N" in seen:
        run_kw["n_modes"] = seen["N"]
    if "tol_grad" in seen:
        run_kw["tol_grad"] = seen["tol_grad"]
    if "max_iters" in seen:
        run_kw["max_iters"] = seen["max_iters"]
    return RunConfig(params=ModelParams1D(**param_kw), **run_kw)


def format_config(config: RunConfig) -> str:
    """Render a :class:`RunConfig` in the config-file format (17 significant digits).

    ``parse_config(format_config(c))`` reproduces ``c`` exactly.
    """
    p = config.params
    lines = [f"{key} = {getattr(p, key):.17g}" for key in _FLOAT_KEYS if key != "tol_grad"]
    lines.append(f"N = {config.n_modes}")
    lines.append(f"tol_grad = {config.tol_grad:.17g}")
    lines.append(f"max_iters = {config.max_iters}")
    return "\n".join(lines) + "\n"
