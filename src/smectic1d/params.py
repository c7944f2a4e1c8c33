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
(:func:`director_constants`, checked by :func:`map_to_oseen_frank`).

The closed forms of the frozen-layer analysis live here too, because they
need only ``math``: :func:`d_critical` (layering onset), :func:`tilt_thresholds`
(loss of in-plane twist) and :func:`theta_star` (optimal constant tilt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

TWO_PI = 2.0 * math.pi

#: Tolerance of the integer check in the layer-commensurability constraint.
COMMENSURABILITY_TOL = 1e-9

#: The initial states of ``minimize.seed_state``; here so the CLI parser needs no numpy.
SEED_KINDS = ("cholesteric", "smectic-seed", "conical-seed")


class ParamError(ValueError):
    """A rejected parameter value; ``keys`` are the config keys its check reads."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


class SolverError(RuntimeError):
    """A failed solve; here, beside ParamError, so that the CLI maps it to exit code 2 without numpy."""


def validate_elastic_constants(eta1: float, eta2: float, eta24: float) -> None:
    """Check that (eta1, eta2, eta24) give a positive-definite gradient energy.

    The three inequalities are checked in order:

    * ``eta1 > 0``
    * ``0 < eta24 < 3*eta1``
    * ``5*eta1 + 10*eta2 - 9*eta24 > 0``

    Raises
    ------
    ValueError
        If any input is not finite, or naming the first violated inequality.
    """
    vals = (eta1, eta2, eta24)
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"elastic constants must be finite, got {vals}")
    if not eta1 > 0:
        raise ValueError(f"eta1 > 0 violated (eta1 = {eta1})")
    if not eta24 > 0:
        raise ValueError(f"eta24 > 0 violated (eta24 = {eta24})")
    if not eta24 < 3 * eta1:
        raise ValueError(f"eta24 < 3*eta1 violated (eta24 = {eta24}, 3*eta1 = {3 * eta1})")
    combo = 5 * eta1 + 10 * eta2 - 9 * eta24
    if not combo > 0:
        raise ValueError(f"5*eta1 + 10*eta2 - 9*eta24 > 0 violated (value = {combo})")


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
    ``k1 = k3 >= k2 >= k2 + k4 > 0 >= k4``.  The degenerate boundary
    ``k4 = 0`` (eta24 = eta1) is admitted.
    """

    k1: float
    k2: float
    k3: float
    k4: float

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
        if violations:
            raise ValueError("; ".join(violations))


def director_constants(eta1: float, eta2: float, eta24: float, s_plus: float) -> tuple[float, float, float]:
    """(k1 = k3, k2, k4) of :func:`map_to_oseen_frank`, without its admissibility check."""
    s2 = s_plus * s_plus
    return s2 * (eta1 + eta2) / 2.0, s2 * eta1, s2 * (eta24 - eta1) / 2.0


def map_to_oseen_frank(eta1: float, eta2: float, eta24: float, s_plus: float) -> OFConstants:
    """Map tensor elastic constants to director elastic constants.

    On the uniaxial manifold with order parameter ``s_plus``:
    ``k1 = k3 = s_plus^2*(eta1 + eta2)/2``, ``k2 = s_plus^2*eta1``,
    ``k4 = s_plus^2*(eta24 - eta1)/2``.  It always returns k3 = k1, which
    :class:`OFConstants` enforces, so the tensor route reaches F only where F
    is the exact Oseen-Frank energy; k1 != k3 enters only through
    :class:`ModelParams1D` directly, as in the tests' ``OFF_DEFAULT``.

    Raises
    ------
    ValueError
        If ``s_plus <= 0`` or the mapped constants violate the chain
        enforced by :class:`OFConstants` (the failed inequality is named).
    """
    if not s_plus > 0:
        raise ValueError(f"s_plus must be positive, got {s_plus}")
    k1, k2, k4 = director_constants(eta1, eta2, eta24, s_plus)
    return OFConstants(k1=k1, k2=k2, k3=k1, k4=k4)


@dataclass(frozen=True, slots=True)
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
                raise ParamError(f"{name} must be positive and finite, got {v}", name)
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ParamError(f"{name} must be nonnegative and finite, got {v}", name)
        for name in ("sigma", "d", "T2star"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParamError(f"{name} must be finite, got {v}", name)
        if not 0 < self.theta0 < math.pi / 2:
            raise ParamError(f"theta0 must lie in (0, pi/2), got {self.theta0}", "theta0")
        ratio = self.q * self.h / TWO_PI
        n0 = round(ratio)
        if n0 < 1 or abs(ratio - n0) > COMMENSURABILITY_TOL * max(1.0, abs(n0)):
            raise ParamError(
                f"incommensurate layer wavenumber: q*h/(2*pi) = {ratio!r} is not a positive integer", "q", "h"
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


# --- closed-form thresholds of the frozen-layer analysis ----------------------


def d_critical(params: ModelParams1D) -> float:
    """Pitchfork location d0 = -2 lambda2 q^4 cos^4(theta0).

    For d above d0 the trivial state is a stable critical point; below d0 it
    loses stability to the layered (helical smectic) branch.  It holds for
    any k1, k2, k3 and sigma: at theta = 0 no layer mode couples to the tilt.
    """
    return -2.0 * params.lambda2 * params.q**4 * math.cos(params.theta0) ** 4


def tilt_thresholds(params: ModelParams1D) -> tuple[float, float]:
    """Stability window (t1, t2) of the untilted state at frozen layering.

    With the layer profile frozen at t*sin(q z), the untilted state is
    stable for t < t1 = sqrt(k3 sigma^2 / (2 lambda2 q^4 cos^2 theta0))
    (pointwise bound) and unstable for t > t2 =
    sqrt(2 q h k3 sigma^2 / ((2 q h - sin(2 q h)) lambda2 q^4 cos^2 theta0))
    (constant perturbation).  Both hold for any k1, k2, k3: to second order
    in theta the chiral term is -k2 sigma^2 + k3 sigma^2 theta^2, and a
    constant tilt has no theta_z term.  Both are +inf when lambda2 = 0.
    """
    p = params
    denom = p.lambda2 * p.q**4 * math.cos(p.theta0) ** 2
    if denom == 0:
        return math.inf, math.inf
    t1 = math.sqrt(p.k3 * p.sigma**2 / (2.0 * denom))
    qh2 = 2.0 * p.q * p.h
    t2 = math.sqrt(qh2 * p.k3 * p.sigma**2 / ((qh2 - math.sin(qh2)) * denom))
    return t1, t2


def theta_star(t: float, params: ModelParams1D) -> float:
    """Optimal constant tilt against the frozen layer profile t*sin(q z).

    arcsin sqrt(max(cos^2 theta0
                    - k3 h sigma^2 / (lambda2 t^2 q^4 (h - sin(2 q h)/(2 q))), 0));
    zero at t = 0 by the limit convention and saturating at pi/2 - theta0 as
    t grows.  It is exact for k2 = k3, where the chiral term is
    -k3 sigma^2 cos^2 theta, and raises ValueError otherwise: at a finite
    tilt the chiral term then has no closed-form minimizer.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    p = params
    if p.k2 != p.k3:
        raise ValueError(f"theta_star needs k2 = k3, got k2 = {p.k2}, k3 = {p.k3}")
    if t == 0 or p.lambda2 == 0:
        return 0.0
    eff_h = p.h - math.sin(2.0 * p.q * p.h) / (2.0 * p.q)
    arg = math.cos(p.theta0) ** 2 - p.k3 * p.h * p.sigma**2 / (p.lambda2 * t * t * p.q**4 * eff_h)
    if arg <= 0:
        return 0.0
    return math.asin(math.sqrt(arg))


# --- configuration file format ------------------------------------------------


#: The largest truncation order N, a fixed bound so that a huge N fails alike on every machine: by
#: tracemalloc the first cholesteric ``spectrum`` of a process peaks at 1.9, 5.5, 17.9 and 66 MiB at
#: N = 64, 128, 256 and 512, tending to 260 (N+2)^2 bytes, so N = 2000 needs 260 * 2002^2 bytes,
#: about 1 GiB.  It bounds memory, not time: the finite-difference Hessian of a spectrum grows about as
#: N^3 (0.009, 0.08, 0.37 and 2.7 s at N = 64, 128, 256 and 512 on a 2-core x86-64 machine), so a
#: spectrum near N_MAX takes minutes.
N_MAX = 2000


@dataclass(frozen=True)
class RunConfig:
    """The run settings, which both sweeps take whole: the parameters and the truncation order N."""

    params: ModelParams1D = ModelParams1D()
    n_modes: int = 64

    def __post_init__(self) -> None:
        if not 2 <= self.n_modes <= N_MAX or self.n_modes % 2 != 0:
            raise ParamError(f"N must be an even integer from 2 to {N_MAX}, got {self.n_modes}", "N")


#: Each config key, in the order ``format_config`` writes them, with the type
#: its value parses to (that of the field's default): the fields of
#: ModelParams1D, then N.
_CONFIG_TYPES = {**{f.name: type(f.default) for f in fields(ModelParams1D)}, "N": int}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a :class:`RunConfig`.

    Blank lines and ``#`` comments are ignored; unknown keys are a hard
    error.  Missing keys fall back to the defaults of :class:`ModelParams1D`
    and :class:`RunConfig`.  A value those reject is reported with the line
    of each key its check reads.
    """
    seen: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        lines[key] = lineno
        try:
            seen[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {value!r}") from exc
    param_kw = {f.name: seen[f.name] for f in fields(ModelParams1D) if f.name in seen}
    try:
        return RunConfig(params=ModelParams1D(**param_kw), **({"n_modes": seen["N"]} if "N" in seen else {}))
    except ParamError as exc:
        at = sorted(lines[k] for k in exc.keys if k in lines)  # the defaults pass every check
        raise ValueError(f"config line{'s' * (len(at) > 1)} {' and '.join(map(str, at))}: {exc}") from None


def format_config(config: RunConfig) -> str:
    """Render a :class:`RunConfig` in the config-file format (17 significant digits).

    ``parse_config(format_config(c))`` reproduces ``c`` exactly.
    """
    values = {f.name: getattr(config.params, f.name) for f in fields(ModelParams1D)} | {"N": config.n_modes}
    return "".join(
        f"{key} = {values[key]:.17g}\n" if kind is float else f"{key} = {values[key]}\n"
        for key, kind in _CONFIG_TYPES.items()
    )
