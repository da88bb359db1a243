"""Closed-form geometry handles for the supported manifold families."""

from __future__ import annotations

from functools import partial

from ..geometry import ManifoldHandle
from .grassmann import make_grassmann
from .hyperbolic import make_hyperbolic
from .hypersurface import make_hypersurface, rescale_tangent_retraction
from .lie_group import LIE_KINDS, make_lie_group, random_spd_coeff
from .spd import make_spd
from .sphere import make_sphere
from .stiefel import make_stiefel

_BUILDERS = {
    "sphere": make_sphere,
    "hyperbolic": make_hyperbolic,
    "spd": make_spd,
    "stiefel": make_stiefel,
    "grassmann": make_grassmann,
    **{kind: partial(make_lie_group, kind) for kind in LIE_KINDS},
}

MANIFOLD_NAMES = tuple(sorted(_BUILDERS))


def make_manifold(name: str, **params) -> ManifoldHandle:
    """Build a manifold handle by family name.

    Families: sphere(n, radius), hyperbolic(n), spd(N), stiefel(n, p,
    alpha0, alpha1), grassmann(n, p), and the groups gl+/sl/so/se/aff
    (N, metric_seed).
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(MANIFOLD_NAMES)
        raise ValueError(f"unknown manifold {name!r}; known families: {known}") from None
    return builder(**params)


__all__ = [
    "LIE_KINDS",
    "MANIFOLD_NAMES",
    "make_grassmann",
    "make_hyperbolic",
    "make_hypersurface",
    "make_lie_group",
    "make_manifold",
    "make_spd",
    "make_sphere",
    "make_stiefel",
    "random_spd_coeff",
    "rescale_tangent_retraction",
]
