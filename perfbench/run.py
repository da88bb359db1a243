"""Layered Monte Carlo benchmark for manifold_sde.

Run from the repository root:

    python3 perfbench/run.py --workload sphere-paths --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's cells are run in repeated passes through the
public API (``simulate``, and ``cli.main`` for the CLI cells) until
``--seconds`` have passed, and the end-to-end metrics are printed: wall time
per path-step, time to the workload's target standard error, peak resident
memory and set-up time.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer self times and counts are printed instead (see
``tracing.py``).  Every run gates each cell for correctness and re-runs a prefix
of one cell with another chunk size and worker cap, which must reproduce the
per-path samples bit for bit.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a result
file with the environment goes to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout the script sits in; the
run fails (exit code 2, no result) when that source tree is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREADS_ENV = "MANIFOLD_SDE_THREADS"
SETUP_PROBES = 5

END_TO_END = {
    "us_per_path_step": "us",
    "time_to_tol_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (unit, span name whose self time or calls it reports)
SPAN_METRICS = {
    "rng.open_s": ("s", "rng.open"),
    "rng.open_calls": ("count", "rng.open"),
    "rng.normal_s": ("s", "rng.normal"),
    "rng.normal_calls": ("count", "rng.normal"),
    "harness.self_s": ("s", "harness.simulate"),
    "harness.simulate_calls": ("count", "harness.simulate"),
    "integrators.mu_adjust_s": ("s", "integrators.mu_adjust"),
    "integrators.mu_adjust_calls": ("count", "integrators.mu_adjust"),
    "manifolds.retract_s": ("s", "manifolds.retract"),
    "manifolds.retract_calls": ("count", "manifolds.retract"),
    "manifolds.domain_s": ("s", "manifolds.domain"),
    "manifolds.domain_calls": ("count", "manifolds.domain"),
    "manifolds.christoffel_s": ("s", "manifolds.christoffel"),
    "manifolds.christoffel_calls": ("count", "manifolds.christoffel"),
    "manifolds.project_s": ("s", "manifolds.project"),
    "manifolds.project_calls": ("count", "manifolds.project"),
    "manifolds.sigma_s": ("s", "manifolds.sigma"),
    "manifolds.sigma_calls": ("count", "manifolds.sigma"),
    "manifolds.drift_s": ("s", "manifolds.drift"),
    "manifolds.drift_calls": ("count", "manifolds.drift"),
    "manifolds.metric_s": ("s", "manifolds.metric"),
    "manifolds.metric_calls": ("count", "manifolds.metric"),
    "geometry.residual_s": ("s", "geometry.residual"),
    "geometry.residual_calls": ("count", "geometry.residual"),
    "geometry.functional_point_s": ("s", "geometry.functional_point"),
    "geometry.functional_point_calls": ("count", "geometry.functional_point"),
    "costs.running_s": ("s", "costs.running"),
    "costs.running_calls": ("count", "costs.running"),
    "costs.terminal_s": ("s", "costs.terminal"),
    "costs.terminal_calls": ("count", "costs.terminal"),
    "cli.self_s": ("s", "cli.main"),
    "cli.parse_s": ("s", "cli.parse"),
    "cli.csv_write_s": ("s", "cli.csv_write"),
    "cli.csv_write_calls": ("count", "cli.csv_write"),
}

# per-layer metrics derived from several spans, from the cells' sizes, or (for
# oracles.*) from the traced set-up
DERIVED_METRICS = {
    "oracles.reference_s": "s",
    "oracles.reference_calls": "count",
    "rng.bytes_drawn": "B",
    "harness.chunks": "count",
    "harness.noise_block_mb": "MB",
    "harness.retry_draws": "count",
    "harness.retry_s": "s",
    "harness.workers": "count",
    "integrators.step_self_s": "s",
    "integrators.step_calls": "count",
    "integrators.rows_stepped": "count",
    "integrators.ok_frac": "frac",
    "cli.csv_bytes": "B",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}

# byte counts computed from array sizes and file sizes, not measured traffic
COMPUTED = ("rng.bytes_drawn", "harness.noise_block_mb", "cli.csv_bytes")


def per_layer_units() -> dict:
    units = {name: unit for name, (unit, _) in SPAN_METRICS.items()}
    units.update(DERIVED_METRICS)
    return units


class CellFailure(Exception):
    """A cell raised a step failure or divergence, or the CLI exited non-zero."""


class Bench:
    """One workload's cells, built once and run in passes."""

    def __init__(self, workload, seed: int):
        import manifold_sde as ms
        from manifold_sde import cli, oracles

        self.ms, self.cli, self.oracles = ms, cli, oracles
        self.workload = workload
        self.seed = seed
        self.cells = workload.cells
        self.handles, self.costs, self.refs, self.configs = [], [], [], []
        self.work = OUT / f"work-{workload.name}-{seed}"

    def cell_seed(self, k: int, p: int) -> int:
        """Seed of cell ``k`` in pass ``p``: every pass simulates fresh paths."""
        return (self.seed * 1000 + p) * 100 + k

    def setup(self, heat=None) -> None:
        """Handles, costs, references, CLI configs and one warm-up step per cell."""
        from manifold_sde.integrators import WienerIncrement
        from workloads import cell_cost, reference

        ms = self.ms
        heat = heat or self.oracles.heat_expectation_s2
        self.work.mkdir(parents=True, exist_ok=True)
        for k, cell in enumerate(self.cells):
            handle = ms.make_manifold(cell.family, **dict(cell.params))
            cost = cell_cost(cell, handle)
            self.handles.append(handle)
            self.costs.append(cost)
            self.refs.append(reference(cell, handle, heat))
            self.configs.append(ms.SimulationConfig(
                T=cell.T, n_div=cell.n_div, n_path=cell.n_path, seed=self.cell_seed(k, 0),
                integrator=cell.integrator, diffusion=cell.diffusion,
                max_retries=cell.max_retries, path_chunk=cell.path_chunk))
            if cell.via_cli:
                self.cli_config(k).write_text(self.cli_text(k, cell.n_path), encoding="utf-8")
            # simulate builds its own stepper and retraction; these pay their
            # first-call costs and feed the warm-up step
            stepper = ms.make_stepper(handle, cell.integrator, diffusion=cell.diffusion)
            ms.second_order_retraction(handle)
            x0 = handle.default_point()[None].repeat(2, axis=0)
            raw = ms.RngStream(self.seed, k).normal((2,) + stepper.noise_shape)
            h = cell.T / cell.n_div
            bound = ms.truncation_bound(h)
            stepper.step(x0, 0.0, h, WienerIncrement(raw=raw, truncated=raw.clip(-bound, bound),
                                                    h=h, r=1.0))

    def cli_config(self, k: int) -> Path:
        return self.work / f"cell{k}.cfg"

    def cli_csv(self, k: int, tag: str = "") -> Path:
        return self.work / f"cell{k}{tag}.csv"

    def summary_csv(self, k: int) -> Path:
        return self.cli_csv(k).with_suffix(".summary.csv")

    def cli_text(self, k: int, n_path: int) -> str:
        cell = self.cells[k]
        params = "".join(f"{key} = {val}\n" for key, val in cell.params)
        return (f"command = simulate\nmanifold = {cell.family}\n{params}"
                f"integrator = {cell.integrator}\nT = {cell.T:g}\nn_div = {cell.n_div}\n"
                f"n_path = {n_path}\nseed = {self.cell_seed(k, 0)}\ncost = {cell.cost}\n")

    # -- running cells ----------------------------------------------------------

    def run_cell(self, k: int, p: int, tracer=None):
        """Run cell ``k`` of pass ``p`` once; returns (samples, wall seconds)."""
        import dataclasses

        import numpy as np
        from manifold_sde.integrators import DivergenceError, StepFailureError

        cell = self.cells[k]
        if cell.via_cli:
            main = self.cli.main if tracer is None else tracer.wrap("cli.main", self.cli.main)
            out = self.cli_csv(k)
            t0 = time.perf_counter()
            self.run_cli(main, self.cli_config(k), out, f"seed={self.cell_seed(k, p)}")
            wall = time.perf_counter() - t0
            if p == 0 and k == self.workload.determinism_cell:
                self.csv_pass0 = out.read_bytes()
            values = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1, ndmin=1)
            return values, wall
        handle, cost = self.handles[k], self.costs[k]
        simulate = self.ms.simulate
        if tracer is not None:
            handle, cost, simulate = tracer.handle(handle), tracer.cost(cost), tracer.simulate(simulate)
        config = dataclasses.replace(self.configs[k], seed=self.cell_seed(k, p))
        try:
            t0 = time.perf_counter()
            result = simulate(config, handle, cost=cost)
            wall = time.perf_counter() - t0
        except (StepFailureError, DivergenceError) as exc:
            raise CellFailure(f"{type(exc).__name__}: {exc}") from exc
        if result.divergent:
            raise CellFailure(f"{len(result.divergent)} divergent paths")
        return result.samples, wall

    @staticmethod
    def run_cli(main, config: Path, out: Path, *overrides: str) -> None:
        """``main`` on a config file with its output quieted; raises CellFailure
        on a non-zero exit code."""
        argv = [str(config), "--set", f"out={out}"]
        for item in overrides:
            argv += ["--set", item]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        if code != 0:
            raise CellFailure(f"cli exit code {code}: {err.getvalue().strip()}")

    def determinism(self) -> str | None:
        """Re-run a prefix of pass 0 of the workload's determinism cell with another
        chunk size and a worker cap of 1; returns a failure description or None."""
        import dataclasses

        from workloads import DETERMINISM_CHUNK, DETERMINISM_PATHS

        k, n = self.workload.determinism_cell, DETERMINISM_PATHS
        cell = self.cells[k]
        saved = os.environ.get(THREADS_ENV)
        os.environ[THREADS_ENV] = "1"
        try:
            if cell.via_cli:
                cfg = self.work / f"cell{k}-prefix.cfg"
                cfg.write_text(self.cli_text(k, n), encoding="utf-8")
                out = self.cli_csv(k, "-prefix")
                try:
                    self.run_cli(self.cli.main, cfg, out)
                except CellFailure as exc:
                    return f"prefix run: {exc}"
                want = b"".join(self.csv_pass0.splitlines(keepends=True)[:n + 1])
                if out.read_bytes() != want:
                    return f"CSV bytes of the first {n} paths differ"
                return None
            cfg = dataclasses.replace(self.configs[k], n_path=n, path_chunk=DETERMINISM_CHUNK)
            prefix = self.ms.simulate(cfg, self.handles[k], cost=self.costs[k]).samples
        finally:
            os.environ[THREADS_ENV] = saved if saved is not None else "0"
        if prefix.tobytes() != self.samples[k][0][:n].tobytes():
            return f"samples of the first {n} paths differ at path_chunk={DETERMINISM_CHUNK}"
        return None

    def passes(self, seconds: float, trace: bool) -> None:
        """Run passes until ``seconds`` have passed, then gate every cell.

        A traced pass re-runs the seeds of the untraced pass before it and must
        reproduce its samples.  The correctness gates see every pass's paths.
        """
        import numpy as np
        from tracing import Tracer
        from workloads import gate

        self.samples = [[] for _ in self.cells]
        self.walls = [[] for _ in self.cells]
        self.untraced_walls, self.traced_walls, self.tracers = [], [], []
        self.failed: dict = {}
        self.gates: dict = {}
        deadline = time.perf_counter() + seconds
        p = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                tracer = Tracer() if traced else None
                pass_wall = 0.0
                with tracer.installed() if traced else contextlib.nullcontext():
                    for k in range(len(self.cells)):
                        if k in self.failed:
                            continue
                        try:
                            samples, wall = self.run_cell(k, p, tracer)
                        except CellFailure as exc:
                            self.failed[k] = str(exc)
                            continue
                        pass_wall += wall
                        if not traced:
                            self.samples[k].append(samples)
                            self.walls[k].append(wall)
                        elif samples.tobytes() != self.samples[k][-1].tobytes():
                            self.failed[k] = "traced samples differ from untraced ones"
                if traced:
                    self.tracers.append(tracer)
                    self.traced_walls.append(pass_wall)
                else:
                    self.untraced_walls.append(pass_wall)
            p += 1
            if time.perf_counter() >= deadline:
                break
        self.n_pass = p
        for k, cell in enumerate(self.cells):
            if k not in self.failed:
                passed, self.gates[k] = gate(cell, self.refs[k], np.concatenate(self.samples[k]))
                if not passed:
                    self.failed[k] = self.gates[k]
        self.determinism_problem = None
        if self.workload.determinism_cell not in self.failed:
            self.determinism_problem = self.determinism()
        # the determinism re-run counts as one more cell
        self.attempted = len(self.cells) + 1
        self.n_failed = len(self.failed) + (self.determinism_problem is not None)

    # -- metrics ------------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict:
        """The end-to-end metrics over the cells that passed.

        Time to tolerance charges each gated cell's median wall for the number
        of runs needed to reach the target stderr, with the per-path spread
        taken from every pass's paths.
        """
        import numpy as np

        ok = [k for k in range(len(self.cells)) if k not in self.failed]
        med = {k: statistics.median(self.walls[k]) for k in ok}
        steps = sum(self.cells[k].path_steps for k in ok)
        to_tol = 0.0
        target = self.workload.target_stderr
        for k in ok:
            if self.refs[k] is not None:
                sd = float(np.std(np.concatenate(self.samples[k]), ddof=1))
                to_tol += med[k] * (sd / target) ** 2 / self.cells[k].n_path
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "us_per_path_step": 1e6 * sum(med.values()) / max(steps, 1),
            "time_to_tol_s": to_tol,
            "peak_rss_mb": rss_kb / 1024.0,
            "setup_s": setup_s,
        }

    def per_layer(self) -> dict:
        """Per-layer metrics of the traced pass with the median value of each
        (the lower median for an even pass count, so counts stay whole)."""
        samples = [self.layer_pass(t) for t in self.tracers]
        out = {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
        out["trace.overhead_frac"] = (statistics.median(self.traced_walls)
                                      / statistics.median(self.untraced_walls) - 1.0)
        return out

    def layer_pass(self, tracer) -> dict:
        agg = tracer.self_times()

        def get(span, i):
            return agg.get(span, (0.0, 0, 0, 0))[i]

        m = {}
        for name, (unit, span) in SPAN_METRICS.items():
            m[name] = get(span, 0) if name.endswith("_s") else get(span, 1)
        m["rng.normal_s"] += get("rng.retry_normal", 0)
        m["rng.normal_calls"] += get("rng.retry_normal", 1)
        m["rng.bytes_drawn"] = get("rng.normal", 2) + get("rng.retry_normal", 2)
        m["harness.chunks"] = sum(c.chunks for c in self.cells)
        m["harness.noise_block_mb"] = max(
            c.n_div * min(c.n_path, c.path_chunk) * h.shape[0] * h.shape[1] * 8
            for c, h in zip(self.cells, self.handles)) / 2**20
        m["harness.retry_draws"] = get("rng.retry_normal", 1)
        m["harness.retry_s"] = (tracer.inclusive("integrators.retry_step")
                                + tracer.inclusive("rng.retry_normal"))
        m["harness.workers"] = tracer.threads_per_root("harness.simulate", "integrators.step")
        m["integrators.step_self_s"] = get("integrators.step", 0) + get("integrators.retry_step", 0)
        m["integrators.step_calls"] = get("integrators.step", 1) + get("integrators.retry_step", 1)
        rows = get("integrators.step", 2) + get("integrators.retry_step", 2)
        ok = get("integrators.step", 3) + get("integrators.retry_step", 3)
        m["integrators.rows_stepped"] = rows
        m["integrators.ok_frac"] = ok / rows if rows else 0.0
        m["cli.csv_bytes"] = sum(
            self.cli_csv(k).stat().st_size + self.summary_csv(k).stat().st_size
            for k, c in enumerate(self.cells) if c.via_cli)
        m["trace.spans"] = len(tracer.spans)
        m["oracles.reference_s"] = self.reference_s
        m["oracles.reference_calls"] = self.reference_calls
        return m


# ---------------------------------------------------------------------------
# environment and set-up time


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(seed: int, cells) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "worker_cap": f"{THREADS_ENV}={os.environ.get(THREADS_ENV, '0')} (0 = auto)",
        # what the auto setting gives: min(chunks, cpu_count), largest cell
        "workers_computed": max(min(c.chunks, os.cpu_count() or 1) for c in cells),
        "git_commit": git_commit(),
        "workload_seed": seed,
        "platform": platform.platform(),
        "computed_byte_counts": list(COMPUTED),
    }


def measure_setup(workload: str, seed: int) -> list:
    """Wall seconds from process start to ready for SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
        times.append(elapsed)
    return times


def run_all(workloads, args) -> int:
    """Run every workload in its own process; the last line sums their results
    and prefixes each metric with its workload's name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "manifold_sde" / "__init__.py").is_file():
        print(f"perfbench: no manifold_sde source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from workloads import GATE_Z, WORKLOADS, reason_check

    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.environ[THREADS_ENV] = "0"  # every workload runs under the auto worker setting

    bench = Bench(workload, args.seed)
    if args.setup_probe:
        bench.setup()
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    if args.trace:
        from tracing import Tracer
        ref_tracer = Tracer()
        bench.setup(heat=ref_tracer.wrap("oracles.reference",
                                         bench.oracles.heat_expectation_s2))
        agg = ref_tracer.self_times().get("oracles.reference", (0.0, 0))
        bench.reference_s, bench.reference_calls = agg[0], agg[1]
    else:
        bench.setup()
    bench.passes(args.seconds, trace=bool(args.trace))

    failures = [(bench.cells[k].label, why) for k, why in sorted(bench.failed.items())]
    if bench.determinism_problem:
        failures.append((bench.cells[workload.determinism_cell].label,
                         "determinism: " + bench.determinism_problem))
    failed = bench.n_failed
    correct = failed == 0
    reason = None
    if args.trace:
        values = bench.per_layer()
        units = per_layer_units()
        reason = reason_check(workload, values)
        bench.tracers[0].write(OUT / f"spans-{workload.name}-seed{args.seed}.csv")
    else:
        values = bench.end_to_end(statistics.median(setup_times))
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": bench.n_pass,
        "environment": environment(args.seed, workload.cells),
        "target_stderr": workload.target_stderr,
        "gate_z": GATE_Z,
        "setup_probe_s": setup_times,
        "failed_frac": failed / bench.attempted,
        "attempted": bench.attempted,
        "failures": failures,
        "reason_confirmed": reason,
        "cells": [
            {"label": c.label, "path_steps": c.path_steps, "reference": bench.refs[k],
             "bias_tol": c.bias_tol, "walls_s": bench.walls[k],
             "gate": bench.gates.get(k, bench.failed.get(k))}
            for k, c in enumerate(bench.cells)
        ],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT / f"BENCH_{workload.name}_seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed}: {bench.n_pass} passes of "
          f"{len(bench.cells)} cells, worker cap auto, cpu_count {os.cpu_count()}")
    for k, cell in enumerate(bench.cells):
        print(f"  {'FAIL' if k in bench.failed else 'ok  '} {cell.label}: "
              f"{bench.gates.get(k, bench.failed.get(k))}")
    for label, why in failures:
        print(f"  failure: {label}: {why}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {failed / bench.attempted:.6g} frac ({failed} of {bench.attempted})")
    if reason is not None:
        own = {n: v for n, v in values.items() if n.endswith("_s") and n != "harness.retry_s"}
        total = sum(own.values())
        top = sorted(own.items(), key=lambda kv: -kv[1])[:6]
        print("  largest self times: " + ", ".join(
            f"{n} {100 * v / total:.0f}%" for n, v in top))
        print(f"  reason {'confirmed' if reason[0] else 'NOT confirmed'}: {reason[1]}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
