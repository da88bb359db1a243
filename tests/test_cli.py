import csv
import dataclasses
import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest

from manifold_sde import (
    SimulationConfig,
    StepFailureError,
    cli,
    harness,
    make_cost,
    make_manifold,
    oracles,
    simulate,
)
from manifold_sde.cli import ConfigError, main, parse_config
from manifold_sde.harness import THREADS_ENV
from manifold_sde.manifolds import MANIFOLD_NAMES

HAPPY = (
    "command=simulate\nmanifold=sphere\nn=3\nintegrator=ito-em\nT=2\n"
    "n_div=1000\nn_path=1000\nseed=7\ncost=phi_5_2\nout=run.csv"
)

SMALL_SIM = """\
# quick smoke run
command = simulate
manifold = sphere
n = 3
integrator = ito-em
T = 0.5
n_div = 20
n_path = 16
seed = 3
cost = phi_5_2
out = {out}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_happy_path_config_parses():
    config = parse_config(HAPPY)
    assert config.command == "simulate"
    assert config.get("manifold") == "sphere"
    assert config.get("n") == 3
    assert config.get("T") == 2.0
    assert config.get("n_div") == 1000
    assert config.get("cost") == "phi_5_2"
    assert config.get("out") == "run.csv"


def test_missing_required_key_is_named():
    text = HAPPY.replace("T=2\n", "")
    with pytest.raises(ConfigError, match=r"\bT\b"):
        parse_config(text)


def test_unknown_integrator_lists_valid_ids():
    text = HAPPY.replace("integrator=ito-em", "integrator=milstein")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    message = str(excinfo.value)
    assert "milstein" in message
    assert "ito-em" in message and "geodesic-walk" in message


@pytest.mark.parametrize("old,new,message", [
    ("command=simulate\n", "", "missing required key 'command'"),
    ("command=simulate", "command=run", "unknown command 'run'; valid commands: validate,"),
    ("manifold=sphere", "manifold=torus", "unknown manifold 'torus'; valid names: aff, gl+,"),
], ids=["no-command", "unknown-command", "unknown-manifold"])
def test_missing_or_unknown_names_are_config_errors(old, new, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(HAPPY.replace(old, new))


def test_unknown_keys_reported_with_line_numbers():
    text = "command=validate\nmanifold=sphere\ncolor=red\nn=3\nflavor=salt\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    message = str(excinfo.value)
    assert "line 3" in message and "color" in message
    assert "line 5" in message and "flavor" in message


def test_type_mismatches_are_reported():
    with pytest.raises(ConfigError, match="integer"):
        parse_config(HAPPY.replace("n_div=1000", "n_div=many"))
    with pytest.raises(ConfigError, match="number"):
        parse_config(HAPPY.replace("T=2", "T=two"))
    with pytest.raises(ConfigError, match=r"key 'T' expects a number, got 'two'"):
        parse_config(HAPPY.replace("T=2", "T=two"))


def test_family_parameter_checks():
    with pytest.raises(ConfigError, match="needs key"):
        parse_config("command=validate\nmanifold=stiefel\nn=5\n")  # p missing
    with pytest.raises(ConfigError, match="do not apply"):
        parse_config("command=validate\nmanifold=sphere\nn=3\nN=3\n")


# the smallest validate config for each family: exactly its builder's required keys
FAMILY_REQUIRED = {
    "sphere": {"n": 3}, "hyperbolic": {"n": 2}, "spd": {"N": 2},
    "stiefel": {"n": 4, "p": 2}, "grassmann": {"n": 4, "p": 2},
    **{kind: {"N": 3} for kind in ("so", "sl", "gl+", "se", "aff")},
}


@pytest.mark.parametrize("family", MANIFOLD_NAMES)
def test_family_keys_match_the_builders(family):
    required = FAMILY_REQUIRED[family]

    def config(params):
        lines = "".join(f"{k}={v}\n" for k, v in params.items())
        return f"command=validate\nmanifold={family}\n{lines}"

    handle = cli._build_handle(parse_config(config(required)))
    assert handle.name.startswith(family)
    for key in required:
        rest = {k: v for k, v in required.items() if k != key}
        with pytest.raises(ConfigError, match=rf"needs key\(s\) {key}$"):
            parse_config(config(rest))
    foreign = "n" if "N" in required else "N"
    with pytest.raises(ConfigError, match=rf"{foreign} do not apply to manifold"):
        parse_config(config({**required, foreign: 2}))


def test_overrides_apply_after_file():
    config = parse_config(HAPPY, overrides=["seed=9", "n_div=50"])
    assert config.get("seed") == 9
    assert config.get("n_div") == 50
    with pytest.raises(ConfigError, match="--set #1"):
        parse_config(HAPPY, overrides=["seed"])


# ---------------------------------------------------------------------------
# command execution through main()


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.cfg")]) == 3
    assert "config error" in capsys.readouterr().err


def test_simulate_with_zero_paths_is_config_error(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    path = write(tmp_path, "zero.cfg", SMALL_SIM.format(out=out).replace("n_path = 16", "n_path = 0"))
    assert main([path]) == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override,integrator", [
    ("T=nan", "geodesic-walk"),
    ("T=inf", "ito-em"),
])
def test_non_finite_parameters_are_config_errors(tmp_path, capsys, override, integrator):
    out = tmp_path / "nonfinite.csv"
    cfg = write(tmp_path, "nonfinite.cfg", SMALL_SIM.format(out=out))
    assert main([cfg, "--set", override, "--set", f"integrator={integrator}"]) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_truncation_parameter_r_is_an_unknown_key(tmp_path, capsys):
    # every clamped increment is cut at sqrt(2 |ln h|): no key sets the clamp
    out = tmp_path / "r.csv"
    cfg = write(tmp_path, "r.cfg", SMALL_SIM.format(out=out) + "r = 2\n")
    assert main([cfg]) == 3
    assert capsys.readouterr().err == "config error: line 12: unknown key 'r'\n"
    assert not out.exists()


def test_non_finite_family_parameter_is_config_error(tmp_path, capsys):
    out = tmp_path / "stiefel.csv"
    text = SMALL_SIM.format(out=out).replace("manifold = sphere\nn = 3", "manifold = stiefel\nn = 5\np = 3")
    text = text.replace("cost = phi_5_2", "cost = sum_abs")
    assert main([write(tmp_path, "stiefel.cfg", text), "--set", "alpha1=nan"]) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "-1", "2.5"])
def test_bad_thread_cap_is_config_error(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv(THREADS_ENV, threads)
    sphere = make_manifold("sphere", n=3)
    with pytest.raises(ValueError, match=THREADS_ENV):
        simulate(SimulationConfig(T=0.5, n_div=4, n_path=4, seed=0), sphere)
    out = tmp_path / "threads.csv"
    assert main([write(tmp_path, "threads.cfg", SMALL_SIM.format(out=out))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and THREADS_ENV in err and repr(threads) in err


def test_step_failure_exits_with_code_2(tmp_path, capsys, monkeypatch):
    def failing_simulate(*args, **kwargs):
        raise StepFailureError("path 0 failed step 0")

    monkeypatch.setattr(cli, "simulate", failing_simulate)
    out = tmp_path / "fail.csv"
    assert main([write(tmp_path, "fail.cfg", SMALL_SIM.format(out=out))]) == 2
    assert capsys.readouterr().err.startswith("step failure:")
    assert not out.exists()


def test_dead_worker_process_exits_with_code_4(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    run_chunk = harness._run_chunk

    def dying_run_chunk(*args):
        if os.getpid() != parent:
            os._exit(9)
        return run_chunk(*args)

    monkeypatch.setattr(harness, "_run_chunk", dying_run_chunk)
    monkeypatch.setenv(THREADS_ENV, "2")
    out = tmp_path / "dead.csv"
    text = SMALL_SIM.format(out=out).replace("n_path = 16", "n_path = 600")
    assert main([write(tmp_path, "dead.cfg", text)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("worker failure: worker process ") and "exited with status 9" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_validate_sphere_passes(tmp_path, capsys):
    path = write(tmp_path, "val.cfg", "command=validate\nmanifold=sphere\nn=3\n")
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_fails_on_a_nan_residual(tmp_path, capsys, monkeypatch):
    def nan_operator(x, w):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(w)), np.nan)

    def broken(*args, **kwargs):
        handle = make_manifold(*args, **kwargs)
        return dataclasses.replace(handle, metric=nan_operator, metric_inv=nan_operator)

    monkeypatch.setattr(cli, "make_manifold", broken)
    path = write(tmp_path, "val.cfg", "command=validate\nmanifold=sphere\nn=3\n")
    assert main([path]) == 2
    assert "FAIL  metric compatibility (FD): nan" in capsys.readouterr().out


def test_heat_kernel_prints_reference_value(tmp_path, capsys):
    path = write(tmp_path, "hk.cfg", "command=heat-kernel\nmanifold=sphere\nn=3\ncost=phi_5_2\n")
    assert main([path]) == 0
    assert "0.299" in capsys.readouterr().out


@pytest.mark.parametrize("body,error", [
    ("n=5\ncost=phi_5_2\n", "heat-kernel needs manifold=sphere with n=3 or n=4"),
    ("n=3\ncost=sum_abs\n", "heat-kernel supports costs phi_32_52, phi_5_2, got 'sum_abs'"),
], ids=["sphere-5", "sum-abs"])
def test_heat_kernel_refuses_what_has_no_series(tmp_path, capsys, body, error):
    path = write(tmp_path, "hk.cfg", f"command=heat-kernel\nmanifold=sphere\n{body}")
    assert main([path]) == 3
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("n,cost,series", [(3, "phi_5_2", "0.299414"),
                                           (4, "phi_32_52", "1.023917")])
def test_heat_kernel_runs_the_grid_next_to_the_series(tmp_path, capsys, n, cost, series):
    out = tmp_path / "hk.csv"
    text = (f"command=heat-kernel\nmanifold=sphere\nn={n}\ncost={cost}\n"
            f"n_path=8\nn_div=20\nout={out}\n")
    assert main([write(tmp_path, "hk.cfg", text)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("with the series") == 4
    with open(out, newline="") as fh:
        header, reference, *cells = list(csv.reader(fh))
    assert header == list(cli.SUMMARY_HEADER)
    assert f"{float(reference[1]):.6f}" == series
    assert reference[6] == "spectral-series"
    sphere = make_manifold("sphere", n=n, radius=3.0)
    assert sphere.name == f"sphere({n},r=3)"
    assert [row[6] for row in cells] == ["ito-em", "strat-heun", "geodesic-walk", "retractive-em"]
    for row in [reference, *cells]:
        assert row[0] == cost and row[5] == "2" and row[7] == sphere.name
    for row in cells:
        assert row[3:5] == ["8", "20"]
        cfg = SimulationConfig(T=2.0, n_div=20, n_path=8, seed=2024, integrator=row[6],
                               diffusion=0.4)
        mean = simulate(cfg, sphere, cost=make_cost(cost, sphere)).mean
        assert float(row[1]).hex() == mean.hex(), row[6]


def test_heat_kernel_rejects_other_manifolds(tmp_path, capsys):
    path = write(tmp_path, "hk2.cfg", "command=heat-kernel\nmanifold=so\nN=3\ncost=phi_5_2\n")
    assert main([path]) == 3


def test_simulate_outputs_are_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main([write(tmp_path, "a.cfg", SMALL_SIM.format(out=out_a))]) == 0
    assert main([write(tmp_path, "b.cfg", SMALL_SIM.format(out=out_b))]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_csv_schema_and_summary_consistency(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main([write(tmp_path, "run.cfg", SMALL_SIM.format(out=out))]) == 0

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_index", "value"]
    assert len(rows) == 1 + 16
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(16)]
    values = np.array([float(r[1]) for r in rows[1:]])

    summary = tmp_path / "run.summary.csv"
    with open(summary, newline="") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["metric", "mean", "stderr", "n_path", "n_div", "T",
                        "integrator", "manifold"]
    record = dict(zip(srows[0], srows[1]))
    assert record["metric"] == "phi_5_2"
    assert record["n_path"] == "16" and record["n_div"] == "20"
    assert record["integrator"] == "ito-em"
    assert abs(float(record["mean"]) - float(np.mean(values))) < 1e-12


# sha256 of the per-path CSV bytes of one small simulate run per integrator
# (T = 0.5, 25 steps, 48 paths, seed 5).  A change meant to keep every
# number must leave these unchanged; the digests also depend on the
# numpy/LAPACK build, so a toolchain change may need them re-recorded.
# The spd(3) digests here and below were re-recorded when sigma and the
# Stratonovich drift moved to the closed form on well-conditioned rows, the
# so(3) and so(8) digests when so(N) inverted through linalg.so_inv, and the
# so(3), stiefel and so(8) ones again when sigma became tangent-valued and
# brownian_sde stopped projecting it (a few ulps per path).
PINNED_PATH_CSV = [
    ("manifold = so\nN = 3\n", "retractive-em", "sum_abs",
     "131811b8dc69650d704379901e2be5fd9a9874c5505815d272ce12427df548cc"),
    ("manifold = spd\nN = 3\n", "strat-heun", "spd_running",
     "060f4332db108dc373ba1c4f7559f67676d4df25eb184b5e082e1a3dbc64bf44"),
    ("manifold = sphere\nn = 3\n", "geodesic-walk", "phi_5_2",
     "359c8489eb90a9ccfe33163b7590914edfee598926e082de013fbd9ac8b412d6"),
    ("manifold = stiefel\nn = 5\np = 3\n", "rk4-geodesic", "sum_abs",
     "5e7fc1e3804a3a7a0270de9b283f285d9cb14f08378a20ccf90a62e05981ffa4"),
    ("manifold = so\nN = 8\n", "ito-em", "sum_abs",
     "90013b11091a1b049d200396e94ce53c4018fae55743b15bb4eb543da7cbf268"),
]


@pytest.mark.parametrize("family,integrator,cost,digest", PINNED_PATH_CSV,
                         ids=[row[1] for row in PINNED_PATH_CSV])
def test_simulate_path_csv_bytes_are_pinned(tmp_path, capsys, monkeypatch,
                                            family, integrator, cost, digest):
    monkeypatch.setenv(THREADS_ENV, "1")
    out = tmp_path / "pinned.csv"
    text = (f"command = simulate\n{family}integrator = {integrator}\nT = 0.5\n"
            f"n_div = 25\nn_path = 48\nseed = 5\ncost = {cost}\nout = {out}\n")
    assert main([write(tmp_path, "pinned.cfg", text)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the same for a coarse spd(3) strat-heun run (T = 2, 10 steps, 48 paths,
# seed 5) in which 64 stepped rows over 14 step calls leave the domain and
# are retried, so the digest also covers the rejected-row path
def test_retry_heavy_path_csv_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "1")
    out = tmp_path / "retry.csv"
    text = ("command = simulate\nmanifold = spd\nN = 3\nintegrator = strat-heun\nT = 2\n"
            f"n_div = 10\nn_path = 48\nseed = 5\ncost = spd_running\nout = {out}\n")
    assert main([write(tmp_path, "retry.cfg", text)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "5a76f92901cb2a7a432f885c03d75fd320cb44d57ff1d2225727ebb66a6871db")


# sha256 of the summary CSV and of stdout of one run of each study command:
# compare on so(3) over the default ladder, uniform on so(3), and heat-kernel
# on the radius-3 2-sphere with its integrator grid.  They pin every row,
# number and verdict the three commands print.
PINNED_STUDY_OUTPUTS = [
    ("compare", "manifold=so\nN=3\nT=0.5\nn_path=64\nseed=5\ncost=sum_abs\n",
     "af05cd46664364c6ea64d60da3dcf6a14a5f7185515c700e8f1f7b25d1531783",
     "900c51fc040a8d8f97ab5c75cb5c66dc9c8ab6fa202fe20f9a90fb2e427b00a0"),
    ("uniform", "manifold=so\nN=3\nn_path=64\nn_div=50\nT=2\nseed=1\ncost=sum_abs\n",
     "422e2adc19549e9b7b0d5693d5b4ca291e8c35c9cf06114955385f5bc36df707",
     "48b1036b0d24ba184fe59226687eb0631e2fe8ee656155f1858f3e535d38dfb1"),
    ("heat-kernel", "manifold=sphere\nn=3\ncost=phi_5_2\nn_path=200\nn_div=100\nseed=2024\n",
     "ebad20c0a0c6f60102951178f027442d76ce0070d77e8a5315a0518c2ae14cb4",
     "195bab0d8d50edc1c949e47d95921362d67c5b88757d73d26cb03601770fb491"),
]


@pytest.mark.parametrize("command,body,csv_digest,stdout_digest", PINNED_STUDY_OUTPUTS,
                         ids=[row[0] for row in PINNED_STUDY_OUTPUTS])
def test_study_outputs_are_pinned(tmp_path, capsys, monkeypatch, command, body, csv_digest,
                                  stdout_digest):
    monkeypatch.setenv(THREADS_ENV, "1")
    out = tmp_path / "study.csv"
    text = f"command={command}\n{body}out={out}\n"
    assert main([write(tmp_path, "study.cfg", text)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


def test_summary_sits_next_to_an_output_in_a_dotted_directory(tmp_path, capsys):
    folder = tmp_path / "runs.v2"
    folder.mkdir()
    out = folder / "run"
    assert main([write(tmp_path, "dotted.cfg", SMALL_SIM.format(out=out))]) == 0
    assert sorted(p.name for p in folder.iterdir()) == ["run", "run.summary"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dotted.cfg", "runs.v2"]


def test_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        pytest.fail("the output check must come before the Monte Carlo run")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    out = tmp_path / "missing" / "run.csv"
    assert main([write(tmp_path, "nowrite.cfg", SMALL_SIM.format(out=out))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:")
    assert "missing" in err


@pytest.mark.parametrize("command,out,error", [
    ("simulate", "", "cannot write output:"),
    ("simulate", "{dir}", "cannot write output:"),
    # the summary path run.summary is a directory
    ("simulate", "{dir}/run", "cannot write output:"),
    ("heat-kernel", "{dir}", "cannot write output:"),
    # validate writes nothing, so it rejects the key itself
    ("validate", "", "key(s) out do not apply to command 'validate'"),
], ids=["simulate-empty", "simulate-directory", "simulate-summary-directory",
        "heat-kernel-directory", "validate-empty"])
def test_bad_output_path_fails_before_any_run(tmp_path, capsys, monkeypatch, command, out,
                                              error):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return harness.SampleSet(np.zeros(16))

    monkeypatch.setattr(cli, "simulate", counted)
    monkeypatch.setattr(harness, "simulate", counted)
    (tmp_path / "run.summary").mkdir()
    out = out.format(dir=tmp_path)
    # only the keys the command reads
    text = SMALL_SIM.format(out=out).replace("simulate", command)
    if command == "heat-kernel":
        text = text.replace("integrator = ito-em\n", "")
    if command == "validate":
        text = f"command = validate\nmanifold = sphere\nn = 3\nout = {out}\n"
    assert main([write(tmp_path, "bad.cfg", text)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {error}")
    assert calls == []


@pytest.mark.parametrize("command,unread", [
    ("compare", ["integrator"]),
    ("heat-kernel", ["integrator"]),
    ("validate", ["T", "cost", "integrator", "n_div", "n_path", "out"]),
])
def test_keys_a_command_does_not_read_are_rejected(command, unread):
    text = SMALL_SIM.format(out="run.csv").replace("simulate", command)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == (f"key(s) {', '.join(sorted(unread))} do not apply "
                                  f"to command {command!r}")
    kept = "".join(line + "\n" for line in text.splitlines()
                   if line.partition(" =")[0] not in unread)
    assert parse_config(kept).command == command


def test_benchmark_cli_cells_set_only_keys_that_simulate_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from run import Bench
    from workloads import WORKLOADS

    commands = []
    for workload in WORKLOADS.values():
        bench = Bench(workload, seed=1)
        commands += [parse_config(bench.cli_text(k, cell.n_path),
                                  overrides=["out=cell.csv", "seed=2"]).command
                     for k, cell in enumerate(workload.cells) if cell.via_cli]
    assert commands and set(commands) == {"simulate"}


def test_compare_with_an_integrator_exits_3_before_any_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate", lambda *args, **kwargs: calls.append(args))
    text = (SMALL_SIM.format(out=tmp_path / "cmp.csv").replace("simulate", "compare")
            .replace("ito-em", "rk4-geodesic"))
    assert main([write(tmp_path, "cmp.cfg", text)]) == 3
    assert capsys.readouterr().err == ("config error: key(s) integrator do not apply "
                                       "to command 'compare'\n")
    assert calls == []


def test_set_override_changes_the_run(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cfg = write(tmp_path, "o.cfg", SMALL_SIM.format(out=out_a))
    assert main([cfg]) == 0
    assert main([cfg, "--set", f"out={out_b}", "--set", "seed=4"]) == 0
    va = [r.split(",")[1] for r in out_a.read_text().splitlines()[1:]]
    vb = [r.split(",")[1] for r in out_b.read_text().splitlines()[1:]]
    assert va != vb

    out_c = tmp_path / "c.csv"
    assert main([cfg, "--set", f"out={out_c}", "--set", "n_path=8"]) == 0
    assert len(out_c.read_text().splitlines()) == 1 + 8


def test_compare_command_writes_grid(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    text = (f"command=compare\nmanifold=so\nN=3\nT=0.5\nn_div=30\n"
            f"n_path=32\nseed=5\ncost=sum_abs\nout={out}\n")
    assert main([write(tmp_path, "cmp.cfg", text)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4  # four integrators at the single n_div
    printed = capsys.readouterr().out
    assert ("consistent" in printed) or ("UNSTABLE" in printed)


def test_compare_command_flags_nan_stderrs(tmp_path, capsys):
    out = tmp_path / "cmp1.csv"
    text = (f"command=compare\nmanifold=sphere\nn=3\nT=0.5\nn_div=20\n"
            f"n_path=1\nseed=1\ncost=phi_5_2\nout={out}\n")
    assert main([write(tmp_path, "cmp1.cfg", text)]) == 0
    printed = capsys.readouterr().out
    assert "UNSTABLE" in printed and "consistent" not in printed


def test_compare_command_checks_a_cost_with_an_exact_law(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    text = (f"command=compare\nmanifold=spd\nN=3\nT=0.5\nn_div=20\n"
            f"n_path=64\nseed=5\ncost=log_det_sq\nout={out}\n")
    assert main([write(tmp_path, "cmp.cfg", text)]) == 0
    first, *cells, last = capsys.readouterr().out.splitlines()
    # E[(log det X_T)^2] = 2 c N T = 2 * 0.5 * 3 * 0.5
    assert first == "exact law of log_det_sq on spd(3) at T=0.5 (diffusion 0.5): 1.5"
    assert len(cells) == 4 and all(line.endswith("with the exact law") for line in cells)
    assert last.startswith(("consistent", "UNSTABLE"))
    with open(out, newline="") as fh:
        header, exact, *rows = list(csv.reader(fh))
    assert exact == ["log_det_sq", "1.5", "0", "0", "0", "0.5", "exact-law", "spd(3)"]
    assert [row[6] for row in rows] == ["ito-em", "strat-heun", "geodesic-walk", "retractive-em"]


def test_heat_kernel_flags_a_wrong_series(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "heat_expectation_s2", lambda *args, **kwargs: 5.0)
    text = "command=heat-kernel\nmanifold=sphere\nn=3\ncost=phi_5_2\nn_path=64\nn_div=20\n"
    assert main([write(tmp_path, "hk.cfg", text)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("DISAGREES with the series") == 4
    assert "agrees with" not in printed


def test_uniform_command_flags_a_wrong_direct_sampler(tmp_path, capsys, monkeypatch):
    # every direct sample is the identity, whose sum_abs is 3, not the uniform 4.5
    monkeypatch.setattr(oracles, "sample_uniform",
                        lambda handle, rng, size=1: np.broadcast_to(np.eye(3), (size, 3, 3)))
    out = tmp_path / "u.csv"
    text = (f"command=uniform\nmanifold=so\nN=3\nn_path=64\nn_div=10\nT=2\n"
            f"seed=1\ncost=sum_abs\nout={out}\n")
    assert main([write(tmp_path, "u.cfg", text)]) == 0
    printed = capsys.readouterr().out
    assert " DISAGREES with uniform 3 (0)\n" in printed and "agrees with" not in printed
    assert out.read_text().splitlines()[2].startswith("sum_abs_uniform,3,0,100000,0,")


def test_uniform_command_requires_compact_manifold(tmp_path, capsys):
    out = tmp_path / "u.csv"
    text = (f"command=uniform\nmanifold=spd\nN=3\nn_path=8\nn_div=10\nT=2\n"
            f"seed=1\ncost=sum_abs\nout={out}\n")
    assert main([write(tmp_path, "ub.cfg", text)]) == 3
    assert "compact" in capsys.readouterr().err


def test_uniform_command_writes_both_estimates(tmp_path, capsys):
    out = tmp_path / "u.csv"
    text = (f"command=uniform\nmanifold=so\nN=3\nn_path=16\nn_div=10\nT=2\n"
            f"seed=1\ncost=sum_abs\nout={out}\n")
    assert main([write(tmp_path, "u.cfg", text)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    metrics = [r[0] for r in rows[1:]]
    assert metrics == ["sum_abs", "sum_abs_uniform"]
    assert rows[2][6] == "direct-sampler"
    # the direct sampler's own sample count, and no grid
    assert rows[1][3:5] == ["16", "10"] and rows[2][3:5] == ["100000", "0"]


def test_uniform_command_rejects_a_running_cost(tmp_path, capsys):
    out = tmp_path / "u.csv"
    text = (f"command=uniform\nmanifold=so\nN=3\nn_path=16\nn_div=10\nT=2\n"
            f"seed=1\ncost=spd_running\nout={out}\n")
    assert main([write(tmp_path, "ur.cfg", text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "running part" in err
    assert not out.exists()


def test_uniform_command_with_a_cost_list_is_the_one_cost_runs(tmp_path, capsys, monkeypatch):
    # one run for both costs; each prints and writes, in order, the bytes of
    # its own one-cost run
    monkeypatch.setenv(THREADS_ENV, "1")
    body = "command=uniform\nmanifold=so\nN=3\nn_path=32\nn_div=20\nT=2\nseed=1\n"
    printed, summaries = [], []
    for cost in ("sum_abs", "abs11", "sum_abs,abs11"):
        out = tmp_path / f"u-{cost}.csv"
        cfg = write(tmp_path, "u.cfg", f"{body}cost={cost}\nout={out}\n")
        assert main([cfg]) == 0
        printed.append(capsys.readouterr().out)
        summaries.append(out.read_bytes().splitlines(keepends=True))
    assert printed[2] == printed[0] + printed[1]
    assert summaries[2] == summaries[0] + summaries[1][1:]


@pytest.mark.parametrize("command,body", [
    ("uniform", "manifold=so\nN=3\ncost=sum_abs,nope\n"),
    ("simulate", "manifold=so\nN=3\nintegrator=ito-em\nT=1\nn_div=4\nn_path=4\nseed=0\n"
                 "cost=sum_abs,abs11\n"),
    ("compare", "manifold=so\nN=3\nT=0.5\nn_path=4\nseed=0\ncost=sum_abs,abs11\n"),
    ("heat-kernel", "manifold=sphere\nn=3\ncost=phi_5_2,phi_32_52\n"),
], ids=["unknown-in-list", "simulate", "compare", "heat-kernel"])
def test_cost_lists_are_checked_before_any_run(tmp_path, capsys, command, body):
    out = tmp_path / "x.csv"
    assert main([write(tmp_path, "list.cfg", f"command={command}\n{body}out={out}\n")]) == 3
    err = capsys.readouterr().err
    if command == "uniform":
        assert "unknown cost 'nope'" in err
    else:
        assert f"key 'cost' takes one id for command {command!r}" in err
    assert not out.exists()


def test_readme_configs_parse():
    # every README block that starts with "command =" is a config the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(command = .*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        assert parse_config(block).command in cli.COMMANDS
