"""Independent ground truth for validating the simulation pipeline.

Three ingredients, each computed by a different route than the main code:

- heat-kernel expectations on the 2- and 3-sphere via spectral series
  (Legendre / Gegenbauer sums), integrated by composite Gauss-Legendre
  quadrature with a refinement check;
- direct uniform samplers for the compact families (normalized Gaussians,
  polar factors, a determinant fold onto the rotation group);
- a frame-based Laplacian evaluation that never touches the ambient-basis
  trace formula.
"""

from __future__ import annotations

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


def _composite_gauss(n_total: int, panels: int = 16):
    """Composite Gauss-Legendre nodes/weights on [0, pi]."""
    per = max(n_total // panels, 4)
    z, w = leggauss(per)
    edges = np.linspace(0.0, np.pi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    phi = (mid[:, None] + half[:, None] * z[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
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
        if order > 2**20:
            raise HeatKernelParameterError("heat-kernel series failed to converge")
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
    """Pointwise kernel density (per unit-sphere surface measure).

    Mainly a positivity/diagnostic hook; ``tag`` is 's2' or 's3'.
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
        sphi = np.where(np.abs(np.sin(phis)) < 1e-14, 1e-14, np.sin(phis))
        if tau >= _S3_FLOAT64_TAU:
            return (np.sin(np.outer(phis, ls + 1.0)) @ weights) / sphi
        # at small tau the series cancels catastrophically in float64 (terms
        # of size ~1/tau summing to ~0 away from phi=0, and the sine argument
        # (l+1) phi itself rounds at 1e-14), so evaluate the sum wide
        args = np.outer(phis.astype(np.longdouble), (ls + 1.0).astype(np.longdouble))
        s = np.sin(args) @ weights.astype(np.longdouble)
        return np.asarray(s, dtype=float) / sphi
    raise HeatKernelParameterError(f"unknown sphere tag {tag!r}; use 's2' or 's3'")


# ---------------------------------------------------------------------------
# direct uniform sampling


def _family(handle: ManifoldHandle) -> str:
    kind = handle.params.get("kind")
    return kind if kind is not None else handle.name.split("(")[0]


def sample_uniform(handle: ManifoldHandle, rng: RngStream, size: int = 1) -> np.ndarray:
    """Direct uniform samples for sphere / SO / Stiefel / Grassmann handles.

    Spheres normalize Gaussian vectors; Stiefel and Grassmann use the polar
    factor of a Gaussian matrix; rotations additionally fold O(N) onto SO(N)
    by flipping the last column when the determinant is negative (a
    measure-preserving involution on the reflection component).
    """
    family = _family(handle)
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
    raise ValueError(f"no direct uniform sampler for {handle.name}")


def uniform_cost_estimate(handle: ManifoldHandle, cost, rng: RngStream,
                          n_sample: int = 100_000) -> SampleSet:
    """``cost`` at ``n_sample`` uniform points, as a ``SampleSet``.

    ``cost`` receives the functional representation of the points (identity
    except for Grassmann, where it is the projector Y Y^T).  The points are
    drawn from ``rng`` in batches of ``_UNIFORM_BATCH``; ``n_sample`` must be
    a positive integer.
    """
    require_integer("n_sample", n_sample, positive=True)
    vals = []
    for done in range(0, n_sample, _UNIFORM_BATCH):
        pts = sample_uniform(handle, rng, min(_UNIFORM_BATCH, n_sample - done))
        vals.append(np.asarray(cost(handle.functional_point(pts)), dtype=float))
    return SampleSet(samples=np.concatenate(vals))


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
