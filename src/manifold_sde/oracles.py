"""Independent ground truth for validating the simulation pipeline.

Four ingredients, each computed by a different route than the main code:

- heat-kernel expectations on the 2- and 3-sphere via spectral series
  (Legendre / Gegenbauer sums), integrated by composite Gauss-Legendre
  quadrature with a refinement check;
- exact means of the costs whose function has a normal law at every T
  (``exact_mean``: log det on spd and gl+, log height on hyperbolic space);
- direct uniform samplers for the compact families (normalized Gaussians,
  polar factors, a determinant fold onto the rotation group);
- a frame-based Laplacian evaluation that never touches the ambient-basis
  trace formula.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss, legval

from ._checks import require_integer
from .geometry import ManifoldHandle, dual_tangent_frame
from .harness import SampleSet
from .linalg import polar_orth
from .rng import RngStream

TAU_MIN = 1e-4

# From this normalized time on, the S^3 series is summed in float64: its
# expectations then agree with the long-double sum to 1e-15 (exactly, at the
# tau = 0.0889 reference configuration) at a fifth of the cost.
_S3_FLOAT64_TAU = 0.03

# Gauss-Legendre nodes of the heat-kernel quadrature on [0, pi]
_NODES = 2048

# points drawn per batch by uniform_cost_estimate
_UNIFORM_BATCH = 20_000


class HeatKernelParameterError(ValueError):
    pass


class QuadratureError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# quadrature


@functools.lru_cache(maxsize=8)
def _composite_gauss(n_total: int, panels: int = 16):
    """Composite Gauss-Legendre nodes/weights on [0, pi], computed once per
    process for each ``(n_total, panels)`` and returned read-only."""
    per = max(n_total // panels, 4)
    z, w = leggauss(per)
    edges = np.linspace(0.0, np.pi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    phi = (mid[:, None] + half[:, None] * z[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    phi.flags.writeable = weights.flags.writeable = False
    return phi, weights


def _refined_integral(integrand) -> float:
    """Integrate over [0, pi], refine once, and insist the two values agree."""
    vals = []
    for panels in (16, 32):
        phi, w = _composite_gauss(_NODES, panels=panels)
        vals.append(float(np.sum(w * integrand(phi))))
    if abs(vals[0] - vals[1]) > 1e-10 * max(1.0, abs(vals[1])):
        raise QuadratureError(
            f"quadrature refinement moved the value by {abs(vals[0] - vals[1]):.3e}"
        )
    return vals[1]


def _tau(T: float, diffusion: float, radius: float) -> float:
    if T <= 0.0:
        raise HeatKernelParameterError(f"time must be positive, got {T}")
    if diffusion <= 0.0 or radius <= 0.0:
        raise HeatKernelParameterError("diffusion and radius must be positive")
    tau = diffusion * T / radius**2
    if tau < TAU_MIN:
        raise HeatKernelParameterError(
            f"normalized time {tau:.3e} below {TAU_MIN:.0e}; series too stiff"
        )
    return tau


def _series_order(tau: float) -> int:
    """Truncation order whose tail term is far below 1e-14 of the sum."""
    order = 16
    while (2.0 * order + 1.0) * np.exp(-order * order * tau) > 1e-16:
        order *= 2
    return order


# ---------------------------------------------------------------------------
# heat-kernel expectations


def _heat_expectation(tag: str, c: float, k: int, cost, T, diffusion, radius) -> float:
    """The ``tag`` kernel series times ``cost`` against the unit sphere's
    surface measure c pi sin(phi)^k d phi on [0, pi]."""
    def integrand(phi):
        dens = heat_kernel_values(tag, phi, T, diffusion, radius) * c * np.pi * np.sin(phi)**k
        return np.asarray(cost(phi), dtype=float) * dens

    return _refined_integral(integrand)


def heat_expectation_s2(cost, T: float, diffusion: float = 0.5, radius: float = 1.0) -> float:
    """E[cost(phi(X_T))] for Brownian motion on a 2-sphere started anywhere.

    ``cost`` is a function of the polar angle phi in [0, pi] measured on the
    unit sphere (the radius only rescales time).  The density is the
    spectral series p_t(phi) = sum_l (2l+1)/(4 pi) e^{-l(l+1) tau}
    P_l(cos phi) with tau = diffusion * T / radius^2, integrated against the
    surface measure 2 pi sin(phi) d phi.
    """
    return _heat_expectation("s2", 2.0, 1, cost, T, diffusion, radius)


def heat_expectation_s3(cost, T: float, diffusion: float = 0.5, radius: float = 1.0) -> float:
    """E[cost(phi(X_T))] for Brownian motion on a 3-sphere.

    Spectral series p_t(phi) = sum_l (l+1)/(2 pi^2) e^{-l(l+2) tau}
    sin((l+1) phi)/sin(phi), integrated against 4 pi sin^2(phi) d phi.
    """
    return _heat_expectation("s3", 4.0, 2, cost, T, diffusion, radius)


def heat_kernel_values(tag: str, phis, T: float, diffusion: float = 0.5,
                       radius: float = 1.0):
    """Pointwise kernel density (per unit-sphere surface measure), in the
    shape of ``phis``.

    Mainly a positivity/diagnostic hook; ``tag`` is 's2' or 's3'.  At the
    S^3 poles, where sin(phi) vanishes, sin((l+1) phi)/sin(phi) takes its
    limits l+1 (phi = 0) and (l+1)(-1)^l (phi = pi).
    """
    tau = _tau(T, diffusion, radius)
    order = _series_order(tau)
    ls = np.arange(order + 1, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if tag == "s2":
        coeff = (2.0 * ls + 1.0) / (4.0 * np.pi) * np.exp(-ls * (ls + 1.0) * tau)
        return legval(np.cos(phis), coeff)
    if tag == "s3":
        weights = (ls + 1.0) / (2.0 * np.pi**2) * np.exp(-ls * (ls + 2.0) * tau)
        pole = np.abs(np.sin(phis)) < 1e-14
        sphi = np.where(pole, 1e-14, np.sin(phis))
        # at small tau the series cancels catastrophically in float64 (terms
        # of size ~1/tau summing to ~0 away from phi=0, and the sine argument
        # (l+1) phi itself rounds at 1e-14), so evaluate the sum wide
        wide = np.longdouble if tau < _S3_FLOAT64_TAU else float
        order_plus_one, weights = (ls + 1.0).astype(wide), weights.astype(wide)
        sums = np.sin(phis.astype(wide)[..., None] * order_plus_one) @ weights
        values = np.asarray(sums, dtype=float) / sphi
        # sin((l+1) phi) / sin(phi) tends to l+1 at phi = 0 and to (l+1)(-1)^l at pi
        at_poles = [float(order_plus_one * sign @ weights) for sign in (1.0, (-1.0) ** ls)]
        return np.where(pole, np.where(np.cos(phis) > 0.0, *at_poles), values)
    raise HeatKernelParameterError(f"unknown sphere tag {tag!r}; use 's2' or 's3'")


# ---------------------------------------------------------------------------
# exact laws on the non-compact families


def exact_mean(handle: ManifoldHandle, cost_id: str, T: float, diffusion: float):
    """E[cost(X_T)] in closed form for the Brownian motion with generator
    diffusion * Laplace-Beltrami started at the handle's canonical point, or
    None where no closed form is known.

    - ``log_det_sq`` on spd(N) and gl+(N) (any ``metric_seed``): log det is
      linear along every affine-invariant geodesic of spd and a
      homomorphism on the unimodular gl+, so its Laplacian is 0 and
      |grad log det|^2 is the constant k = <I, Pi g^{-1} I> at x0 = I (N on
      spd).  log det X_T is then normal with mean 0 and variance 2 c k T.
    - ``log_height_sq`` on hyperbolic(n): log x_n has Laplacian -(n - 1) and
      |grad|^2 = 1, so log x_n(X_T) is normal with mean -(n - 1) c T and
      variance 2 c T.
    """
    family = handle.family
    c = diffusion
    if cost_id == "log_det_sq" and family in ("spd", "gl+"):
        eye = handle.default_point()
        k = float(np.sum(eye * handle.project(eye, handle.metric_inv(eye, eye))))
        return 2.0 * c * k * T
    if cost_id == "log_height_sq" and family == "hyperbolic":
        n = handle.shape[0]
        return ((n - 1) * c * T) ** 2 + 2.0 * c * T
    return None


# ---------------------------------------------------------------------------
# direct uniform sampling


def sample_uniform(handle: ManifoldHandle, rng: RngStream, size: int = 1) -> np.ndarray:
    """Direct uniform samples for sphere / SO / Stiefel / Grassmann handles.

    Spheres normalize Gaussian vectors; Stiefel and Grassmann use the polar
    factor of a Gaussian matrix; rotations additionally fold O(N) onto SO(N)
    by flipping the last column when the determinant is negative (a
    measure-preserving involution on the reflection component).
    """
    family = handle.family
    n, m = handle.shape
    if family == "sphere":
        g = rng.normal((size, n))
        g = g / np.linalg.norm(g, axis=-1, keepdims=True)
        radius = float(handle.params.get("radius", 1.0))
        return (radius * g)[..., None]
    if family in ("stiefel", "grassmann"):
        return polar_orth(rng.normal((size, n, m)))
    if family == "so":
        q = polar_orth(rng.normal((size, n, n)))
        flip = np.linalg.det(q) < 0.0
        q[flip, :, -1] *= -1.0
        return q
    raise ValueError(f"no direct uniform sampler for {handle.name}: the uniform law needs "
                     "a compact family with a direct sampler (sphere, so, stiefel, grassmann)")


def uniform_cost_estimate(handle: ManifoldHandle, cost, rng: RngStream,
                          n_sample: int = 100_000):
    """``cost`` at ``n_sample`` uniform points, as a ``SampleSet``.

    ``cost`` receives the functional representation of the points (identity
    except for Grassmann, where it is the projector Y Y^T).  A tuple of
    costs reads the same points and gives a tuple of ``SampleSet``s, the
    j-th bit-identical to the estimate of ``cost[j]`` alone from the same
    ``rng`` state.  The points are drawn from ``rng`` in batches of
    ``_UNIFORM_BATCH``; ``n_sample`` must be a positive integer.
    """
    require_integer("n_sample", n_sample, positive=True)
    single = not isinstance(cost, tuple)
    costs = (cost,) if single else cost
    vals = [[] for _ in costs]
    for done in range(0, n_sample, _UNIFORM_BATCH):
        pts = handle.functional_point(
            sample_uniform(handle, rng, min(_UNIFORM_BATCH, n_sample - done)))
        for values, c in zip(vals, costs):
            values.append(np.asarray(c(pts), dtype=float))
    sets = tuple(SampleSet(samples=np.concatenate(values)) for values in vals)
    return sets[0] if single else sets


# ---------------------------------------------------------------------------
# frame-based Laplacian


def laplacian_frame_oracle(handle: ManifoldHandle, x: np.ndarray, egrad, ehess) -> float:
    """Laplace-Beltrami value from a dual tangent frame.

    Evaluates sum_j ( <v_j, ehess(v^j)> - <egrad, Gamma(x; v_j, v^j)> ) over
    a metric-dual frame pair, which needs only frame values and never the
    ambient trace construction used by the main pipeline.  ``egrad`` is the
    ambient gradient matrix at ``x``; ``ehess`` maps ambient directions to
    ambient Hessian-vector products and must broadcast over a leading axis.
    """
    frame, dual = dual_tangent_frame(handle, x)
    egrad = np.asarray(egrad, dtype=float)
    hess_part = float(np.sum(frame * np.asarray(ehess(dual), dtype=float)))
    gamma_part = float(np.sum(egrad * handle.christoffel(x, frame, dual)))
    return hess_part - gamma_part
