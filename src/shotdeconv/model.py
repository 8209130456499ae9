"""Domain types, parameter normalization, and analytic characteristic-function oracles.

The process under study is a stationary exponential shot noise: pulses arrive at
Poisson times, each carrying a random amplitude (the mark), and decay
exponentially. Everything downstream works with the dimensionless parameters
obtained by normalizing to the sampling interval, so this module owns that
normalization plus the closed-form mark characteristic functions and a
quadrature oracle for the characteristic function of the sampled process.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidParameterError, NumericalFailure, _check_number

__all__ = [
    "ModelParams",
    "GaussianMixture",
    "Exponential",
    "PointMass",
    "MarkDistribution",
    "SmoothnessConfig",
    "normalize",
    "true_shot_cf",
    "cf_lower_bound",
    "mark_sobolev_norm",
    "mark_cf_tail_energy",
    "check_smoothness",
    "marks_to_json",
    "marks_from_json",
]

# Entries per block of the simulator's per-pulse arithmetic and of the
# histogram binning: a block's few float and index arrays (512 KiB each)
# stay in a core's L2 cache.
_BLOCK = 65_536


@dataclass(frozen=True)
class ModelParams:
    """Normalized shot-noise parameters.

    Parameters
    ----------
    lambda_norm : float
        Mean number of pulse arrivals per sampling interval (physical
        intensity times the sampling step). Nonnegative.
    alpha_norm : float
        Pulse decay per sampling interval (physical decay rate times the
        sampling step). Strictly positive.
    ratio : float
        Intensity over decay rate. Dimensionless, independent of the
        sampling step, and the only parameter the density estimator needs.
    """

    lambda_norm: float
    alpha_norm: float
    ratio: float

    def __post_init__(self):
        lam = _check_number(self.lambda_norm, "lambda_norm", ge=0)
        alpha = _check_number(self.alpha_norm, "alpha_norm", gt=0)
        ratio = _check_number(self.ratio, "ratio", ge=0)
        implied = lam / alpha
        scale = max(abs(implied), abs(ratio))
        if abs(ratio - implied) > 1e-12 * max(scale, 1e-300):
            raise InvalidParameterError(
                f"ratio {ratio} inconsistent with lambda_norm/alpha_norm = {implied}"
            )
        object.__setattr__(self, "lambda_norm", lam)
        object.__setattr__(self, "alpha_norm", alpha)
        object.__setattr__(self, "ratio", ratio)


def normalize(lambda_phys, alpha_phys, delta):
    """Convert physical rates and a sampling step into normalized parameters.

    Parameters
    ----------
    lambda_phys : float
        Pulse intensity per unit time. Nonnegative.
    alpha_phys : float
        Pulse decay rate per unit time. Strictly positive.
    delta : float
        Sampling step. Strictly positive.

    Returns
    -------
    ModelParams
        ``lambda_norm = lambda_phys * delta``, ``alpha_norm = alpha_phys * delta``
        and ``ratio = lambda_phys / alpha_phys``.
    """
    lam = _check_number(lambda_phys, "lambda_phys", ge=0)
    alpha = _check_number(alpha_phys, "alpha_phys", gt=0)
    step = _check_number(delta, "delta", gt=0)
    return ModelParams(lam * step, alpha * step, lam / alpha)


@dataclass(frozen=True)
class GaussianMixture:
    """Finite mixture of normal laws for the marks.

    Parameters
    ----------
    weights : sequence of float
        Mixture weights, nonnegative, summing to 1 within 1e-12.
    means : sequence of float
        Component means, same length as ``weights``.
    sds : sequence of float
        Component standard deviations, strictly positive.
    """

    weights: tuple
    means: tuple
    sds: tuple

    def __post_init__(self):
        weights = tuple(_check_number(w, "weight", ge=0) for w in self.weights)
        means = tuple(_check_number(m, "mean") for m in self.means)
        sds = tuple(_check_number(s, "sd", gt=0) for s in self.sds)
        if not weights:
            raise InvalidParameterError("mixture needs at least one component")
        if len(weights) != len(means) or len(weights) != len(sds):
            raise InvalidParameterError(
                f"component arrays disagree in length: {len(weights)} weights, "
                f"{len(means)} means, {len(sds)} sds"
            )
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise InvalidParameterError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)

    def cf(self, u):
        """Characteristic function, elementwise over `u`."""
        u_arr = np.asarray(u, dtype=float)
        out = np.zeros(u_arr.shape, dtype=complex)
        for w, mu, sd in zip(self.weights, self.means, self.sds):
            out += w * np.exp(1j * mu * u_arr - 0.5 * (sd * u_arr) ** 2)
        return out if u_arr.ndim else complex(out)

    def pdf(self, x):
        """Probability density, elementwise over `x`."""
        x_arr = np.asarray(x, dtype=float)
        out = np.zeros(x_arr.shape, dtype=float)
        for w, mu, sd in zip(self.weights, self.means, self.sds):
            out += w / (sd * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * ((x_arr - mu) / sd) ** 2)
        return out if x_arr.ndim else float(out)

    def abs_moment(self, order):
        """E|Y|^order by numeric integration."""
        order = _check_number(order, "order", ge=0)
        from scipy import integrate

        def integrand(y):
            return abs(y) ** order * self.pdf(y)

        left, _ = integrate.quad(integrand, -np.inf, 0.0, limit=200)
        right, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
        return left + right

    def sample(self, rng, size):
        """Draw `size` marks using `rng` (component choice, then normal draw).

        Component k is the number of cumulative weights ``cum[j] <= u`` over
        j < K-1, which is ``searchsorted(cum, u, "right")`` capped at K-1:
        zero-weight components are never chosen, and a ``u`` at or above a
        last cumulative weight that rounds below 1 falls to the last one.

        All `size` component uniforms come from one ``rng.random`` call.
        The normals are then drawn, scaled and shifted block by block of
        the uniforms, each mark written over its uniform. A draw split into
        consecutive calls of the same generator method returns the same
        values as one call of the summed size, and every mark is the same
        ``sd * z + mu``, so the block size does not change the output.
        """
        cum = np.cumsum(self.weights)
        sds = np.asarray(self.sds)
        means = np.asarray(self.means)
        out = rng.random(size)
        for start in range(0, size, _BLOCK):
            u = out[start : start + _BLOCK]
            # the count runs over j < max(K-1, 1); "clip" caps it at K-1,
            # which matters only for K = 1
            comp = (u >= cum[0]).astype(np.intp)
            for edge in cum[1:-1]:
                comp += (u >= edge).astype(np.intp)
            # sd * z + mu, written over the uniforms: the same IEEE result
            # as mu + sd * z
            np.multiply(rng.standard_normal(u.size), sds.take(comp, mode="clip"), out=u)
            u += means.take(comp, mode="clip")
        return out


@dataclass(frozen=True)
class Exponential:
    """Exponential mark law with the given rate (mean ``1/rate``)."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _check_number(self.rate, "rate", gt=0))

    def cf(self, u):
        u_arr = np.asarray(u, dtype=float)
        out = self.rate / (self.rate - 1j * u_arr)
        return out if u_arr.ndim else complex(out)

    def pdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.where(x_arr >= 0, self.rate * np.exp(-self.rate * np.clip(x_arr, 0, None)), 0.0)
        return out if x_arr.ndim else float(out)

    def abs_moment(self, order):
        order = _check_number(order, "order", ge=0)
        return math.gamma(order + 1.0) / self.rate**order

    def sample(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate, size=size)


@dataclass(frozen=True)
class PointMass:
    """Degenerate mark law putting all mass at one value (test oracle only)."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _check_number(self.value, "value"))

    def cf(self, u):
        u_arr = np.asarray(u, dtype=float)
        out = np.exp(1j * self.value * u_arr)
        return out if u_arr.ndim else complex(out)

    def pdf(self, x):
        raise InvalidParameterError("a point mass has no density")

    def abs_moment(self, order):
        order = _check_number(order, "order", ge=0)
        return abs(self.value) ** order

    def sample(self, rng, size):
        return np.full(size, self.value, dtype=float)


MarkDistribution = GaussianMixture | Exponential | PointMass


@dataclass(frozen=True)
class SmoothnessConfig:
    """Hypothesis-class bounds for the mark law, supplied by the user.

    Fields follow the class definition: `s` is the Sobolev exponent of the
    mark density, `K` bounds the absolute moment of order ``4 + m``, `L`
    bounds the Sobolev semi-norm of the mark characteristic function, and
    `m` is the extra moment order. These are configuration, never estimated.
    """

    s: float
    K: float
    L: float
    m: float

    def __post_init__(self):
        object.__setattr__(self, "s", _check_number(self.s, "s", gt=0.5))
        object.__setattr__(self, "K", _check_number(self.K, "K", gt=0))
        object.__setattr__(self, "L", _check_number(self.L, "L", gt=0))
        object.__setattr__(self, "m", _check_number(self.m, "m", gt=0))


# relative tolerance of the CF oracle's quadrature (`true_shot_cf`), and the
# log2 of its most subintervals
_REL_TOL = 1e-8
_MAX_DEPTH = 60


def true_shot_cf(params, marks, u):
    """Characteristic function of the stationary sampled shot noise.

    Evaluates ``exp(ratio * I(u))`` where ``I(u)`` is the integral from 0 to
    `u` of ``(mark_cf(z) - 1) / z``. With ``z = t * u`` this is the integral
    over ``t`` in [0, 1] of ``(mark_cf(t * u) - 1) / t``, which
    ``scipy.integrate.quad_vec`` computes for every distinct ``|u|`` at once
    by adaptive Gauss-Kronrod quadrature. The endpoint ``t = 0`` is never
    evaluated. Values at ``u < 0`` are the conjugates of those at ``-u``:
    the mark CFs are conjugate-symmetric bit for bit, and the max-norm error
    estimate sees the same errors either way, so this equals integrating at
    ``u`` itself.

    The error of every ``I(u)`` is bounded by 1e-8 times the largest
    ``|I(u)|`` of the call, so the relative error of each result is at most
    about ``1e-8 * ratio * max|I(u)|``.

    Parameters
    ----------
    params : ModelParams
    marks : MarkDistribution
    u : float or array_like
        Evaluation point(s).

    Returns
    -------
    complex or ndarray of complex

    Raises
    ------
    NumericalFailure
        If the quadrature does not converge within ``2**_MAX_DEPTH``
        subintervals. The best available value is attached as ``partial``.
    """
    u_arr = np.asarray(u, dtype=float)
    u_flat = np.atleast_1d(u_arr).ravel()
    if not np.all(np.isfinite(u_flat)):
        raise InvalidParameterError("u must be finite")
    if u_flat.size == 0:
        return np.empty(u_arr.shape, dtype=complex)
    u_abs, where = np.unique(np.abs(u_flat), return_inverse=True)
    from scipy import integrate

    def integrand(t):
        return (marks.cf(t * u_abs) - 1.0) / t

    log_phi, _, info = integrate.quad_vec(
        integrand, 0.0, 1.0, epsrel=_REL_TOL, norm="max", limit=2**_MAX_DEPTH, full_output=True
    )
    phi = np.exp(params.ratio * log_phi)
    phi[u_abs == 0.0] = 1.0 + 0.0j
    phi = phi[where]
    np.conjugate(phi, out=phi, where=u_flat < 0)
    result = complex(phi[0]) if u_arr.ndim == 0 else phi.reshape(u_arr.shape)
    if not info.success:
        raise NumericalFailure(
            f"quadrature did not converge within {2**_MAX_DEPTH} subintervals",
            partial=result,
        )
    return result


def cf_lower_bound(config, params, u):
    """Guaranteed lower bound on the modulus of the sampled-process CF.

    Returns ``exp(-ratio * (L + K**(1/(4+m)))) * (1 + |u|)**(-ratio)``, valid
    whenever the mark law satisfies the moment and Sobolev bounds in `config`.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise InvalidParameterError("u must be finite")
    const = math.exp(-params.ratio * (config.L + config.K ** (1.0 / (4.0 + config.m))))
    out = const * (1.0 + np.abs(u_arr)) ** (-params.ratio)
    return out if u_arr.ndim else float(out)


def mark_sobolev_norm(marks, s):
    """Sobolev semi-norm sqrt(integral of (1+u^2)^s |mark_cf(u)|^2 du).

    Raises
    ------
    InvalidParameterError
        When the integral provably diverges (point mass for any s;
        exponential marks for s >= 1/2, where the integrand decays like
        u^(2s-2)).
    """
    s = _check_number(s, "s", gt=0)
    if isinstance(marks, PointMass):
        raise InvalidParameterError(
            "Sobolev integral diverges for a point mass (|mark_cf| = 1 everywhere)"
        )
    if isinstance(marks, Exponential) and s >= 0.5:
        raise InvalidParameterError(
            f"Sobolev integral diverges for exponential marks when s >= 1/2 (got s={s}); "
            "the integrand decays only like u^(2s-2)"
        )
    from scipy import integrate

    def integrand(v):
        c = marks.cf(v)
        return (1.0 + v * v) ** s * (c.real * c.real + c.imag * c.imag)

    half, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
    return math.sqrt(2.0 * half)


def mark_cf_tail_energy(marks):
    """sqrt(integral over [1, inf) of Re(mark_cf(u))^2 du).

    This is the weaker tail quantity that actually drives the CF decay bound
    when the full Sobolev integral is infinite (exponential marks).
    """
    if isinstance(marks, PointMass):
        raise InvalidParameterError("tail integral diverges for a point mass")
    from scipy import integrate

    def integrand(v):
        return marks.cf(v).real ** 2

    val, _ = integrate.quad(integrand, 1.0, np.inf, limit=400)
    return math.sqrt(val)


def check_smoothness(marks, config):
    """Brute-force admissibility check of a mark law against class bounds.

    Computes the absolute moment of order ``4 + m`` and a norm of the mark
    characteristic function, and compares them to ``K`` and ``L``. The norm
    is the full Sobolev semi-norm when it is finite; otherwise the tail
    energy over [1, inf) is used (the quantity the decay bound needs).

    Returns
    -------
    dict
        Keys: ``moment_value``, ``moment_ok``, ``norm_value``, ``norm_kind``
        (``"sobolev"`` or ``"cf_tail"``), ``norm_ok``, ``admissible``.
    """
    moment_value = marks.abs_moment(4.0 + config.m)
    try:
        norm_value = mark_sobolev_norm(marks, config.s)
        norm_kind = "sobolev"
    except InvalidParameterError:
        norm_value = mark_cf_tail_energy(marks)
        norm_kind = "cf_tail"
    moment_ok = moment_value <= config.K
    norm_ok = norm_value <= config.L
    return {
        "moment_value": moment_value,
        "moment_ok": moment_ok,
        "norm_value": norm_value,
        "norm_kind": norm_kind,
        "norm_ok": norm_ok,
        "admissible": moment_ok and norm_ok,
    }


def _check_keys(obj, allowed, where, required=()):
    """Reject `obj` unless it is a dict whose keys lie in `allowed` and include `required`.

    Unknown and missing keys are each named in sorted order, so the message
    never depends on the iteration order of a set.
    """
    if not isinstance(obj, dict):
        raise InvalidParameterError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InvalidParameterError(f"unknown fields {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise InvalidParameterError(f"missing fields {missing} in {where}")


# the JSON "type" name of each mark law
_MARK_TYPES = {
    "gaussian_mixture": GaussianMixture,
    "exponential": Exponential,
    "point_mass": PointMass,
}


def marks_to_json(marks):
    """JSON-compatible dict for a mark law: its type name, then its fields."""
    for kind, cls in _MARK_TYPES.items():
        if type(marks) is cls:
            return {"type": kind, **asdict(marks)}
    raise InvalidParameterError(f"unsupported mark distribution {type(marks).__name__}")


def marks_from_json(obj):
    """Mark law from its JSON type name and exactly its fields: arrays for tuples, else numbers."""
    if not isinstance(obj, dict):
        raise InvalidParameterError(f"marks must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    cls = _MARK_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidParameterError(f"unknown marks type {kind!r}")
    names = [f.name for f in fields(cls)]
    _check_keys(obj, {"type", *names}, "marks", required=names)
    values = {}
    for f in fields(cls):
        value = obj[f.name]
        if f.type != "tuple":
            value = _check_number(value, f"marks.{f.name}")
        elif not isinstance(value, (list, tuple)):
            raise InvalidParameterError(f"marks.{f.name} must be an array")
        values[f.name] = value
    return cls(**values)
