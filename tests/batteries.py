"""Shared manifold batteries and call counters for the test suite."""

import numpy as np

from manifold_sde import make_manifold

# the full geometry battery: every closed-form family at its test sizes
GEOMETRY_BATTERY = [
    ("sphere-3", lambda: make_manifold("sphere", n=3)),
    ("sphere-10", lambda: make_manifold("sphere", n=10)),
    ("hyperbolic-2", lambda: make_manifold("hyperbolic", n=2)),
    ("hyperbolic-3", lambda: make_manifold("hyperbolic", n=3)),
    ("gl+-2", lambda: make_manifold("gl+", N=2)),
    ("sl-3", lambda: make_manifold("sl", N=3)),
    ("so-3", lambda: make_manifold("so", N=3)),
    ("so-4", lambda: make_manifold("so", N=4)),
    ("se-3", lambda: make_manifold("se", N=3)),
    ("aff-3", lambda: make_manifold("aff", N=3)),
    ("spd-3", lambda: make_manifold("spd", N=3)),
    ("stiefel-5-3-a", lambda: make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=0.5)),
    ("stiefel-5-3-b", lambda: make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=0.8)),
    ("stiefel-5-3-c", lambda: make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=1.0)),
    ("grassmann-5-3", lambda: make_manifold("grassmann", n=5, p=3)),
]

# a smaller cross-section for the more expensive per-point checks
SPOT_BATTERY = [
    ("sphere-3", lambda: make_manifold("sphere", n=3)),
    ("so-3", lambda: make_manifold("so", N=3)),
    ("spd-3", lambda: make_manifold("spd", N=3)),
    ("stiefel-5-3-b", lambda: make_manifold("stiefel", n=5, p=3, alpha0=1.0, alpha1=0.8)),
    ("grassmann-5-3", lambda: make_manifold("grassmann", n=5, p=3)),
]

IDS = [name for name, _ in GEOMETRY_BATTERY]
SPOT_IDS = [name for name, _ in SPOT_BATTERY]


def count_linalg(monkeypatch, *names, module=np.linalg):
    """Patch the named functions of ``module`` (``np.linalg`` by default) to
    count their calls; returns the live counts, keyed by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def record_inv(monkeypatch):
    """Patch ``np.linalg.inv`` to keep a copy of every argument; returns the
    live list."""
    seen = []
    real = np.linalg.inv

    def recording(a, *args, **kwargs):
        seen.append(np.array(a, copy=True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", recording)
    return seen
