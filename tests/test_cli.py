import csv
import dataclasses
import hashlib
import os

import numpy as np
import pytest

from manifold_sde import SimulationConfig, StepFailureError, cli, harness, make_manifold, simulate
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
    ("r=nan", "ito-em"),
    ("r=inf", "ito-em"),
    ("T=nan", "geodesic-walk"),
    ("T=inf", "ito-em"),
])
def test_non_finite_parameters_are_config_errors(tmp_path, capsys, override, integrator):
    out = tmp_path / "nonfinite.csv"
    cfg = write(tmp_path, "nonfinite.cfg", SMALL_SIM.format(out=out))
    assert main([cfg, "--set", override, "--set", f"integrator={integrator}"]) == 3
    assert capsys.readouterr().err.startswith("config error:")
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


def test_uniform_command_honours_truncation_parameter(tmp_path, capsys):
    outs = []
    for r in (1, 4):
        out = tmp_path / f"u{r}.csv"
        text = (f"command=uniform\nmanifold=so\nN=3\nn_path=64\nn_div=10\nT=2\n"
                f"seed=1\nr={r}\ncost=sum_abs\nout={out}\n")
        assert main([write(tmp_path, f"u{r}.cfg", text)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]
