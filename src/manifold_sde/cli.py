"""Batch front-end: plain key=value configs dispatched to simulation runs.

Usage: ``manifold-sde <config-path> [--set key=value ...]``

Config files are UTF-8 ``key=value`` lines; ``#`` starts a comment.  The
recognized keys are command, manifold, n, p, N, alpha0, alpha1, metric_seed,
integrator, T, n_div, n_path, seed, cost and out; anything else is
rejected with its line number.  ``--set`` overrides are applied after the
file is parsed.  Each command reads ``manifold``, the family's parameters
and its own keys (see ``COMMANDS``); a key it does not read is rejected.

Commands:

- ``validate``:    geometry self-checks (projection, Christoffel symmetry,
                   metric compatibility, Brownian second-order operator,
                   closed-form vs. generic drift) at random points.
- ``simulate``:    Monte Carlo run; per-path CSV (``path_index,value``) at
                   ``out`` plus a one-row summary CSV next to it, named
                   ``<stem>.summary<ext>`` (``run.csv`` -> ``run.summary.csv``).
- ``compare``:     the same functional across integrators and step ladders;
                   summary CSV, inconsistent grids are flagged, not fatal.
                   A cost with an exact law (``oracles.exact_mean``) gets
                   an ``exact-law`` row first and each cell's verdict on it.
- ``uniform``:     long-run Brownian estimate vs. direct uniform sampling
                   (families with a direct sampler and terminal costs only).
                   ``cost`` may list ids (``cost = sum_abs,abs11``): one run
                   and one direct draw serve them all, and each prints its
                   line and writes its two summary rows, in the listed order.
- ``heat-kernel``: spectral-series expectation for the sphere reference
                   configuration (diffusion 0.4, radius 3, T = 2 unless
                   set).  With ``n_path`` it also runs the ``compare`` grid
                   at that configuration (n_div 1000 and seed 2024 unless
                   set) and prints each cell next to the series; the
                   series row and one row per cell go to ``out`` if set.

The three study commands build cells for ``harness.run_study`` (the grids
through ``compare_methods``), and every verdict they print is a row's;
``_write_summary`` writes their CSVs and ``_grid`` prints the grid cells.

Exit codes: 0 success, 2 step/validation failure, 3 config error (an
output file that cannot be written is one too: whenever ``out`` is set,
every command checks before it runs that ``out`` is not empty, names no
existing directory, and sits in an existing writable directory, and
``simulate`` checks its summary path the same way), 4 worker failure (a
worker process died without reporting on its chunks).  Path chunks run in
forked worker processes, capped by MANIFOLD_SDE_THREADS (0 or unset =
auto); a value that is not a non-negative integer is a config error.
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
    SampleSet,
    SimulationConfig,
    WorkerProcessError,
    compare_methods,
    simulate,
    uniform_limit_run,
)
from .integrators import IntegratorParameterError, StepFailureError, check_integrator_id
from .linalg import frobenius_norm
from .manifolds import MANIFOLD_NAMES, family_keys, make_manifold
from .oracles import exact_mean, heat_expectation_s2, heat_expectation_s3
from .rng import RngStream

EXIT_OK = 0
EXIT_STEP_FAILURE = 2
EXIT_CONFIG = 3
EXIT_WORKER = 4

# every config key and the type of its value
_KEY_TYPES = {
    "command": str, "manifold": str, "integrator": str, "cost": str, "out": str,
    "n": int, "p": int, "N": int, "metric_seed": int, "n_div": int, "n_path": int,
    "seed": int, "alpha0": float, "alpha1": float, "T": float,
}
CONFIG_KEYS = frozenset(_KEY_TYPES)

# keys that some family builder takes; each config is checked against its own family
_FAMILY_PARAMS = frozenset().union(*(family_keys(f)[1] for f in MANIFOLD_NAMES))
_SIM_FIELDS = frozenset(f.name for f in fields(SimulationConfig))

# reference configuration of the spectral heat-kernel cross-check
_HEAT_DIFFUSION = 0.4
_HEAT_RADIUS = 3.0
_HEAT_T = 2.0
_HEAT_N_DIV = 1000
_HEAT_SEED = 2024


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
    required, optional, _ = COMMANDS[command]
    for key in required:
        if key not in values:
            raise ConfigError(f"missing required key {key!r} for command {command!r}")
    unread = sorted(values.keys() - _FAMILY_PARAMS - set(required) - set(optional))
    if unread:
        raise ConfigError(f"key(s) {', '.join(unread)} do not apply to command {command!r}")

    if "integrator" in values:
        try:
            check_integrator_id(values["integrator"])
        except IntegratorParameterError as exc:
            raise ConfigError(str(exc)) from None
    if "cost" in values:
        cost_ids = _cost_ids(values["cost"])
        for cost_id in cost_ids:
            if cost_id not in COST_IDS:
                raise ConfigError(
                    f"unknown cost {cost_id!r}; valid ids: {', '.join(COST_IDS)}"
                )
        if len(cost_ids) > 1 and command != "uniform":
            raise ConfigError(f"key 'cost' takes one id for command {command!r}, "
                              f"got the list {values['cost']!r}")
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


def _cost_ids(raw: str) -> list:
    """The ids of a ``cost`` value: one id, or a comma-separated list (``uniform`` only)."""
    return [cost_id.strip() for cost_id in raw.split(",")]


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
    """Raise OSError unless ``path`` is not empty, names no directory, and
    its directory exists and is writable; creates nothing."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), folder)
    if not os.access(folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), folder)


def _summary_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}.summary{ext}"


SUMMARY_HEADER = ("metric", "mean", "stderr", "n_path", "n_div", "T", "integrator", "manifold")


def _write_summary(out: str, T: float, manifold: str, entries) -> None:
    """One summary row per (metric, estimate, integrator, n_div); an exact
    float estimate has stderr 0 and path count 0."""
    rows = []
    for metric, est, integrator, n_div in entries:
        mean, stderr, n = ((est.mean, est.stderr, est.n_path) if isinstance(est, SampleSet)
                           else (est, 0.0, 0))
        rows.append((metric, f"{mean:.17g}", f"{stderr:.17g}", n, n_div, f"{T:g}", integrator,
                     manifold))
    _write_csv(out, SUMMARY_HEADER, rows)


def _verdict(row) -> str:
    return "agrees with" if row.agree else "DISAGREES with"


def _grid(sim, handle, cost, n_divs, reference, against: str) -> tuple:
    """Run and print the ``compare`` grid, each cell with its verdict on ``against``
    if there is a ``reference``; returns the table and the cells' summary entries."""
    table = compare_methods(sim, handle, cost, n_divs=n_divs, reference=reference)
    for row in table.rows:
        integrator, n_div = row.label
        verdict = "" if reference is None else f" {_verdict(row)} {against}"
        print(f"  {integrator:>13} n_div={n_div:>4}: mean={row.samples.mean:.6g} "
              f"stderr={row.samples.stderr:.3g}{verdict}")
    return table, [(cost.name, row.samples, *row.label) for row in table.rows]


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
    _write_summary(_summary_path(config.get("out")), sim.T, handle.name,
                   [(cost.name, out, sim.integrator, sim.n_div)])

    print(f"{handle.name} {sim.integrator} T={sim.T:g} n_div={sim.n_div} "
          f"n_path={sim.n_path}: mean={out.mean:.6g} stderr={out.stderr:.3g}")
    return EXIT_OK


def _cmd_compare(config: RunConfig) -> int:
    handle = _build_handle(config)
    cost = make_cost(config.get("cost"), handle)
    n_divs = (config.values["n_div"],) if "n_div" in config.values else (200, 500, 700)
    sim = _sim_config(config, n_div=max(n_divs), integrator="ito-em")
    exact = exact_mean(handle, cost.name, sim.T, sim.diffusion)
    entries = []
    if exact is not None:
        print(f"exact law of {cost.name} on {handle.name} at T={sim.T:g} "
              f"(diffusion {sim.diffusion}): {exact:.6g}")
        entries.append((cost.name, exact, "exact-law", 0))
    table, cells = _grid(sim, handle, cost, n_divs, exact, "the exact law")
    _write_summary(config.get("out"), sim.T, handle.name, entries + cells)
    if table.consistent:
        print("consistent: all pairs within 3 combined stderrs")
    else:
        print(f"UNSTABLE: worst pair {table.worst_pair} gap={table.worst_gap:.4g} "
              f"exceeds allowance {table.worst_allowance:.4g}")
    return EXIT_OK


def _cmd_uniform(config: RunConfig) -> int:
    handle = _build_handle(config)
    costs = [make_cost(cost_id, handle) for cost_id in _cost_ids(config.get("cost"))]
    sim = _sim_config(config, T=40.0, n_div=700, n_path=1000, seed=0, integrator="ito-em")
    entries = []
    for row in uniform_limit_run(sim, handle, costs):
        brownian, direct = row.samples, row.reference
        print(f"{handle.name} {row.label}: brownian {brownian.mean:.6g} ({brownian.stderr:.3g}) "
              f"{_verdict(row)} uniform {direct.mean:.6g} ({direct.stderr:.3g})")
        entries += [(row.label, brownian, sim.integrator, sim.n_div),
                    (row.label + "_uniform", direct, "direct-sampler", 0)]
    _write_summary(config.get("out"), sim.T, handle.name, entries)
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
    handle = make_manifold("sphere", n=config.get("n"), radius=_HEAT_RADIUS)
    T = config.get("T", _HEAT_T)
    series = heat_expectation_s2 if config.get("n") == 3 else heat_expectation_s3
    value = series(ANGLE_COSTS[cost_id], T=T, diffusion=_HEAT_DIFFUSION, radius=_HEAT_RADIUS)
    tag = "S2" if config.get("n") == 3 else "S3"
    print(f"{tag} heat-kernel expectation of {cost_id} at T={T:g} "
          f"(diffusion {_HEAT_DIFFUSION}, radius {_HEAT_RADIUS}): {value:.3f}")
    print(f"  full precision: {value:.12g}")
    entries = [(cost_id, value, "spectral-series", 0)]
    if "n_path" in config.values:
        sim = _sim_config(config, T=_HEAT_T, n_div=_HEAT_N_DIV, seed=_HEAT_SEED,
                          diffusion=_HEAT_DIFFUSION)
        entries += _grid(sim, handle, make_cost(cost_id, handle), (sim.n_div,),
                         reference=value, against="the series")[1]
    if config.get("out"):
        _write_summary(config.get("out"), T, handle.name, entries)
    return EXIT_OK


# each command's required keys, the other keys its body reads besides the
# family's parameters, and its body
COMMANDS = {
    "validate": (("manifold",), ("seed",), _cmd_validate),
    "simulate": (("manifold", "integrator", "T", "n_div", "n_path", "seed", "cost", "out"),
                 (), _cmd_simulate),
    "compare": (("manifold", "T", "n_path", "seed", "cost", "out"), ("n_div",), _cmd_compare),
    "uniform": (("manifold", "cost", "out"), ("integrator", "T", "n_div", "n_path", "seed"),
                _cmd_uniform),
    "heat-kernel": (("manifold", "n", "cost"), ("T", "n_div", "n_path", "seed", "out"),
                    _cmd_heat_kernel),
}


def run(config: RunConfig) -> int:
    """Execute a parsed config; returns the process exit code."""
    _, _, body = COMMANDS[config.command]
    out = config.get("out")
    try:
        if out is not None:  # a bad output fails before any run
            _check_writable(out)
            if config.command == "simulate":
                _check_writable(_summary_path(out))
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
