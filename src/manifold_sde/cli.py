"""Batch front-end: plain key=value configs dispatched to simulation runs.

Usage: ``manifold-sde <config-path> [--set key=value ...]``

Config files are UTF-8 ``key=value`` lines; ``#`` starts a comment.  The
recognized keys are command, manifold, n, p, N, alpha0, alpha1, metric_seed,
integrator, T, n_div, n_path, seed, r, cost and out; anything else is
rejected with its line number.  ``--set`` overrides are applied after the
file is parsed.

Commands:

- ``validate``:    geometry self-checks (projection, Christoffel symmetry,
                   metric compatibility, Brownian second-order operator,
                   closed-form vs. generic drift) at random points.
- ``simulate``:    Monte Carlo run; per-path CSV (``path_index,value``) at
                   ``out`` plus a one-row summary CSV next to it, named
                   ``<stem>.summary<ext>`` (``run.csv`` -> ``run.summary.csv``).
- ``compare``:     the same functional across integrators and step ladders;
                   summary CSV, inconsistent grids are flagged, not fatal.
- ``uniform``:     long-run Brownian estimate vs. direct uniform sampling
                   (compact manifolds and terminal costs only).
- ``heat-kernel``: spectral-series expectation for the sphere reference
                   configuration (diffusion 0.4, radius 3), no simulation.

Exit codes: 0 success, 2 step/validation failure, 3 config error (an
output file that cannot be written is one too; ``simulate``, ``compare`` and
``uniform`` check that the directory of ``out`` exists and is writable before
they run), 4 worker failure (a worker process died without reporting on its
chunks).  Path chunks run in forked worker processes, capped by
MANIFOLD_SDE_THREADS (0 or unset = auto); a value that is not a
non-negative integer is a config error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .costs import ANGLE_COSTS, COST_IDS, make_cost
from .geometry import (
    ManifoldHandle,
    brownian_ito_drift,
    brownian_soo,
    check_metric_compatibility,
    check_projection,
    soo_residual,
)
from .harness import (
    SimulationConfig,
    WorkerProcessError,
    compare_methods,
    simulate,
    uniform_limit_run,
)
from .integrators import INTEGRATOR_IDS, StepFailureError
from .linalg import frobenius_norm
from .manifolds import MANIFOLD_NAMES, family_keys, make_manifold
from .oracles import heat_expectation_s2, heat_expectation_s3
from .rng import RngStream

EXIT_OK = 0
EXIT_STEP_FAILURE = 2
EXIT_CONFIG = 3
EXIT_WORKER = 4

# every config key and the type of its value
_KEY_TYPES = {
    "command": str, "manifold": str, "integrator": str, "cost": str, "out": str,
    "n": int, "p": int, "N": int, "metric_seed": int, "n_div": int, "n_path": int,
    "seed": int, "alpha0": float, "alpha1": float, "T": float, "r": float,
}
CONFIG_KEYS = frozenset(_KEY_TYPES)

# keys that some family builder takes; each config is checked against its own family
_FAMILY_PARAMS = frozenset().union(*(family_keys(f)[1] for f in MANIFOLD_NAMES))
_SIM_FIELDS = frozenset(f.name for f in fields(SimulationConfig))

# reference configuration of the spectral heat-kernel cross-check
_HEAT_DIFFUSION = 0.4
_HEAT_RADIUS = 3.0
_HEAT_T = 2.0


class ConfigError(ValueError):
    """Raised for malformed, incomplete or inconsistent run configs."""


@dataclass
class RunConfig:
    command: str
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)


def _convert(key: str, raw: str, where: str):
    raw = raw.strip()
    kind = _KEY_TYPES[key]
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: key {key!r} expects {expected}, got {raw!r}")


def _parse_pairs(lines) -> dict:
    """lines is a sequence of (location, text) pairs already comment-free."""
    values = {}
    bad = []
    for where, text in lines:
        if "=" not in text:
            bad.append(f"{where}: expected key=value, got {text!r}")
            continue
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            bad.append(f"{where}: unknown key {key!r}")
            continue
        values[key] = _convert(key, raw, where)
    if bad:
        raise ConfigError("; ".join(bad))
    return values


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse a key=value config (with # comments) into a validated RunConfig."""
    lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append((f"line {lineno}", body))
    values = _parse_pairs(lines)
    values.update(_parse_pairs((f"--set #{k + 1}", text) for k, text in enumerate(overrides)))

    if "command" not in values:
        raise ConfigError("missing required key 'command'")
    command = values.pop("command")
    if command not in COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; valid commands: {', '.join(COMMANDS)}"
        )
    for key in COMMANDS[command][0]:
        if key not in values:
            raise ConfigError(f"missing required key {key!r} for command {command!r}")

    if "integrator" in values and values["integrator"] not in INTEGRATOR_IDS:
        raise ConfigError(
            f"unknown integrator {values['integrator']!r}; valid ids: "
            f"{', '.join(INTEGRATOR_IDS)}"
        )
    if "cost" in values and values["cost"] not in COST_IDS:
        raise ConfigError(
            f"unknown cost {values['cost']!r}; valid ids: {', '.join(COST_IDS)}"
        )
    if "manifold" in values:
        family = values["manifold"]
        if family not in MANIFOLD_NAMES:
            raise ConfigError(
                f"unknown manifold {family!r}; valid names: {', '.join(MANIFOLD_NAMES)}"
            )
        required, allowed = family_keys(family)
        given = _FAMILY_PARAMS & values.keys()
        missing = sorted(required - given)
        extra = sorted(given - allowed)
        if missing:
            raise ConfigError(f"manifold {family!r} needs key(s) {', '.join(missing)}")
        if extra:
            raise ConfigError(f"key(s) {', '.join(extra)} do not apply to manifold {family!r}")
    return RunConfig(command=command, values=values)


def _build_handle(config: RunConfig) -> ManifoldHandle:
    family = config.get("manifold")
    _, allowed = family_keys(family)
    params = {k: config.values[k] for k in allowed & config.values.keys()}
    return make_manifold(family, **params)


def _write_csv(path: str, header, rows, row_format: str | None = None):
    """Write ``header`` and ``rows`` as CSV.  With ``row_format``, a
    %-format of one whole line that needs no quoting, the file is built as
    one string instead of through ``csv.writer``: the same bytes, faster on
    the long per-path file."""
    with open(path, "w", newline="") as fh:
        if row_format is not None:
            fh.write(",".join(header) + "\n" + "".join([row_format % row for row in rows]))
            return
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _check_writable(path: str) -> None:
    """Raise OSError unless the directory of ``path`` exists and is writable;
    creates nothing."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), folder)
    if not os.access(folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), folder)


def _summary_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}.summary{ext}"


SUMMARY_HEADER = ("metric", "mean", "stderr", "n_path", "n_div", "T", "integrator", "manifold")


def _summary_row(metric, mean, stderr, n_path, n_div, T, integrator, manifold):
    return (metric, f"{mean:.17g}", f"{stderr:.17g}", n_path, n_div, f"{T:g}", integrator, manifold)


def _sim_config(config: RunConfig, **defaults) -> SimulationConfig:
    given = {k: v for k, v in config.values.items() if k in _SIM_FIELDS}
    return SimulationConfig(**{**defaults, **given})


# ---------------------------------------------------------------------------
# command bodies


# validate checks in the order their values are computed, with their tolerances
_VALIDATE_TOLERANCES = {
    "projection idempotency": 1e-9,
    "projection self-adjointness": 1e-9,
    "christoffel symmetry": 1e-10,
    "metric compatibility (FD)": 1e-5,
    "brownian SOO residual": 1e-8,
    "ito drift closed-form vs generic": 1e-9,
}


def _cmd_validate(config: RunConfig) -> int:
    handle = _build_handle(config)
    rng = RngStream(seed=config.get("seed", 0), stream_id=0)
    worst = [0.0] * len(_VALIDATE_TOLERANCES)
    for _ in range(5):
        x = handle.random_point(rng)
        report = check_projection(handle, x, trials=6, rng=rng)
        xi = handle.random_tangent(rng, x)
        eta = handle.random_tangent(rng, x)
        values = (
            report.max_idempotency,
            report.max_asymmetry,
            frobenius_norm(handle.christoffel(x, xi, eta) - handle.christoffel(x, eta, xi)),
            check_metric_compatibility(handle, x, trials=4, rng=rng),
            soo_residual(handle, x, brownian_soo(handle, x)),
            frobenius_norm(handle.ito_drift(x) - brownian_ito_drift(handle, x)),
        )
        worst = np.maximum(worst, values)  # a NaN residual stays NaN and fails

    print(f"validate {handle.name}")
    ok = True
    for (name, tol), value in zip(_VALIDATE_TOLERANCES.items(), worst):
        passed = value < tol
        ok = ok and passed
        print(f"  {'PASS' if passed else 'FAIL'}  {name}: {value:.3e} (< {tol:g})")
    return EXIT_OK if ok else EXIT_STEP_FAILURE


def _cmd_simulate(config: RunConfig) -> int:
    handle = _build_handle(config)
    cost = make_cost(config.get("cost"), handle)
    sim = _sim_config(config)
    out = simulate(sim, handle, cost=cost)

    _write_csv(config.get("out"), ("path_index", "value"),
               enumerate(out.samples.tolist()), "%d,%.17g\n")
    summary = _summary_row(cost.name, out.mean, out.stderr, out.n_path,
                           sim.n_div, sim.T, sim.integrator, handle.name)
    _write_csv(_summary_path(config.get("out")), SUMMARY_HEADER, [summary])

    print(f"{handle.name} {sim.integrator} T={sim.T:g} n_div={sim.n_div} "
          f"n_path={sim.n_path}: mean={out.mean:.6g} stderr={out.stderr:.3g}")
    return EXIT_OK


def _cmd_compare(config: RunConfig) -> int:
    handle = _build_handle(config)
    cost = make_cost(config.get("cost"), handle)
    n_divs = (config.values["n_div"],) if "n_div" in config.values else (200, 500, 700)
    sim = _sim_config(config, n_div=max(n_divs), integrator="ito-em")
    table = compare_methods(sim, handle, cost, n_divs=n_divs)

    rows = [
        _summary_row(cost.name, c.mean, c.stderr, c.n_path, c.n_div, sim.T,
                     c.integrator, handle.name)
        for c in table.cells
    ]
    _write_csv(config.get("out"), SUMMARY_HEADER, rows)
    for c in table.cells:
        print(f"  {c.integrator:>13} n_div={c.n_div:>4}: "
              f"mean={c.mean:.6g} stderr={c.stderr:.3g}")
    if table.consistent:
        print("consistent: all pairs within 3 combined stderrs")
    else:
        print(f"UNSTABLE: worst pair {table.worst_pair} gap={table.worst_gap:.4g} "
              f"exceeds allowance {table.worst_allowance:.4g}")
    return EXIT_OK


def _cmd_uniform(config: RunConfig) -> int:
    handle = _build_handle(config)
    cost = make_cost(config.get("cost"), handle)
    sim = _sim_config(config, T=40.0, n_div=700, n_path=1000, seed=0, integrator="ito-em")
    rows = uniform_limit_run(sim, handle, [cost])
    out_rows = []
    for row in rows:
        out_rows.append(_summary_row(row.cost_name, row.brownian.mean, row.brownian.stderr,
                                     row.brownian.n_path, sim.n_div, sim.T, sim.integrator,
                                     handle.name))
        out_rows.append(_summary_row(row.cost_name + "_uniform", row.direct.mean,
                                     row.direct.stderr, row.direct.n_path, 0, sim.T,
                                     "direct-sampler", handle.name))
        verdict = "agrees with" if row.consistent else "DISAGREES with"
        print(f"{handle.name} {row.cost_name}: brownian {row.brownian.mean:.6g} "
              f"({row.brownian.stderr:.3g}) {verdict} uniform {row.direct.mean:.6g} "
              f"({row.direct.stderr:.3g})")
    _write_csv(config.get("out"), SUMMARY_HEADER, out_rows)
    return EXIT_OK


def _cmd_heat_kernel(config: RunConfig) -> int:
    if config.get("manifold") != "sphere" or config.get("n") not in (3, 4):
        raise ConfigError("heat-kernel needs manifold=sphere with n=3 or n=4")
    cost_id = config.get("cost")
    if cost_id not in ANGLE_COSTS:
        raise ConfigError(
            f"heat-kernel supports costs {', '.join(sorted(ANGLE_COSTS))}, "
            f"got {cost_id!r}"
        )
    cost = ANGLE_COSTS[cost_id]
    T = config.get("T", _HEAT_T)
    series = heat_expectation_s2 if config.get("n") == 3 else heat_expectation_s3
    value = series(cost, T=T, diffusion=_HEAT_DIFFUSION, radius=_HEAT_RADIUS)
    tag = "S2" if config.get("n") == 3 else "S3"
    print(f"{tag} heat-kernel expectation of {cost_id} at T={T:g} "
          f"(diffusion {_HEAT_DIFFUSION}, radius {_HEAT_RADIUS}): {value:.3f}")
    print(f"  full precision: {value:.12g}")
    if config.get("out"):
        row = _summary_row(cost_id, value, 0.0, 0, 0, T, "spectral-series",
                           f"sphere({config.get('n')})")
        _write_csv(config.get("out"), SUMMARY_HEADER, [row])
    return EXIT_OK


# each command's required keys and its body
COMMANDS = {
    "validate": (("manifold",), _cmd_validate),
    "simulate": (("manifold", "integrator", "T", "n_div", "n_path", "seed", "cost", "out"),
                 _cmd_simulate),
    "compare": (("manifold", "T", "n_path", "seed", "cost", "out"), _cmd_compare),
    "uniform": (("manifold", "cost", "out"), _cmd_uniform),
    "heat-kernel": (("manifold", "n", "cost"), _cmd_heat_kernel),
}


def run(config: RunConfig) -> int:
    """Execute a parsed config; returns the process exit code."""
    required, body = COMMANDS[config.command]
    try:
        if "out" in required:  # the commands that simulate fail before the run
            _check_writable(config.get("out"))
        return body(config)
    except (ConfigError, ValueError) as exc:
        # invalid ids, impossible parameter combinations, bad manifold sizes
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepFailureError as exc:
        print(f"step failure: {exc}", file=sys.stderr)
        return EXIT_STEP_FAILURE
    except WorkerProcessError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_WORKER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="manifold-sde",
        description="Simulate SDEs with an invariant matrix manifold.",
    )
    parser.add_argument("config", help="path to a key=value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="key=value",
        help="override a config key (repeatable, applied after the file)",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text, overrides=args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
