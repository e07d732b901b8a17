"""Command-line interface tests.

These drive genellip.cli.main in process.  Note on the truncated-input
examples: at the literal input r = 0.70710678 (eight digits, slightly
below 1/sqrt 2) the AGM oracle gives K = 1.854074675879721592826416 and
mu = 1.570796329203778141213892; the idealized digits 1.8540746773 /
1.5707963268 belong to the full-precision symmetry point, which is
exercised separately.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import genellip.cli as cli
from genellip.verify import CheckSpec, GridDim, GridSpec, registry


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------------------
# eval

def test_eval_m_classical(capsys):
    code, out, _ = run_cli(capsys, "eval", "M", "--a", "0.5", "--b", "0.5",
                           "--c", "1", "--z", "0.3")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("0.318309886")
    assert float(first) == pytest.approx(1.0 / math.pi, rel=1e-11)
    assert "method = " in out


def test_eval_m_beside_a_gamma_pole_exits_0(capsys):
    # M's contiguous triple (a-1, b, c) has c-b = -1 exactly
    code, out, err = run_cli(capsys, "eval", "M", "--a", "1e-8", "--b", "7.3",
                             "--c", "6.3", "--z", "0.9")
    assert (code, err) == (0, "")
    assert math.isfinite(float(out.splitlines()[0]))


def test_eval_mu_truncated_input_matches_agm_oracle(capsys):
    # 17-digit json output; the text channel carries only 12 digits
    code, out, _ = run_cli(capsys, "eval", "mu", "--a", "0.5", "--c", "1",
                           "--r", "0.70710678", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(
        1.570796329203778141213892, rel=1e-13)


def test_eval_mu_symmetry_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "mu", "--a", "0.5", "--c", "1",
                           "--r", "0.7071067811865476")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("1.570796326")
    assert float(first) == pytest.approx(math.pi / 2.0, rel=1e-11)


def test_eval_k_truncated_input_matches_agm_oracle(capsys):
    code, out, _ = run_cli(capsys, "eval", "K", "--a", "0.5", "--b", "0.5",
                           "--c", "1", "--r", "0.70710678", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(
        1.854074675879721592826416, rel=1e-13)


def test_eval_k_symmetry_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "K", "--a", "0.5", "--b", "0.5",
                           "--c", "1", "--r", "0.7071067811865476")
    assert code == 0
    assert out.splitlines()[0].startswith("1.8540746773")


def test_eval_json_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "beta", "--a", "0.5", "--b", "0.5",
                           "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["fn"] == "beta"
    assert body["value"] == pytest.approx(math.pi, rel=1e-13)
    assert body["method"]


def test_eval_echoes_the_point_under_the_flag_it_read(capsys):
    # --z is r^2, so --z 0.25 is the modulus r = 0.5, echoed as "z": 0.25
    ell = ("--a", "0.5", "--b", "0.5", "--c", "1", "--format", "json")
    for fn in ("K", "E", "Kp", "Ep"):
        code_z, by_z, _ = run_cli(capsys, "eval", fn, *ell, "--z", "0.25")
        code_r, by_r, _ = run_cli(capsys, "eval", fn, *ell, "--r", "0.5")
        assert code_z == code_r == 0
        z, r = json.loads(by_z), json.loads(by_r)
        assert z["z"] == 0.25 and "r" not in z, fn
        assert r["r"] == 0.5 and "z" not in r, fn
        assert z["value"] == r["value"], fn


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "K", "--a", "0.5", "--b", "0.9",
                           "--c", "0.7", "--r", "0.5")
    assert code == 2
    assert "domain error" in err


@pytest.mark.parametrize("argv", [
    "solve --a 0.5 --c 1 --p 0 --r 0.5",
    "solve --a 0.5 --c 1 --p -2 --r 0.5",
    "eval K --a 0.5 --b 0.5 --c 1 --z -1",
    "eval Ep --a 0.5 --b 0.5 --c 1 --z 1.5",
])
def test_point_outside_the_domain_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert "domain error" in err


def test_eval_missing_flag_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "mu", "--a", "0.5", "--c", "1")
    assert code == 2
    assert "--r" in err


def test_eval_convergence_exit_3(capsys, monkeypatch):
    from genellip import modulus
    monkeypatch.setattr(modulus, "_MAX_EVALS", 3)
    code, _, err = run_cli(capsys, "invert", "--a", "0.5", "--c", "1",
                           "--p", "1.2")
    assert code == 3
    assert "convergence" in err


# --------------------------------------------------------------------------
# tabulate

def test_tabulate_mu_nine_rows(capsys):
    code, out, _ = run_cli(capsys, "tabulate", "mu", "--a", "0.5", "--c", "1",
                           "--grid", "0.1:0.9:9:linear")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# mu,")
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 9
    assert all(len(r.split(",")) == 3 for r in rows)


def test_tabulate_m_symmetric_column(capsys):
    code, out, _ = run_cli(capsys, "tabulate", "M", "--a", "0.3", "--b", "0.5",
                           "--c", "0.9", "--grid", "0.1:0.9:9:linear")
    assert code == 0
    vals = [float(l.split(",")[1]) for l in out.strip().splitlines()
            if not l.startswith("#")]
    for lo, hi in zip(vals, reversed(vals)):
        assert lo == pytest.approx(hi, rel=1e-11)


def test_tabulate_phi_strictly_increasing(capsys):
    code, out, _ = run_cli(capsys, "tabulate", "phi", "--a", "0.5", "--c", "1",
                           "--K", "2", "--grid", "0.05:0.95:12:linear")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("# K,2")
    vals = [float(l.split(",")[1]) for l in lines if not l.startswith("#")]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_tabulate_deterministic(capsys):
    args = ("tabulate", "K", "--a", "0.3", "--b", "0.5", "--c", "0.7",
            "--grid", "0.001:0.999:17:logit")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_tabulate_bad_grid_exit_2(capsys):
    code, _, err = run_cli(capsys, "tabulate", "mu", "--a", "0.5", "--c", "1",
                           "--grid", "0.1:0.9:banana")
    assert code == 2
    for grid in ([], ["--grid", "0:0.9:5:log"], ["--grid", "0.1:1.5:5:logit"],
                 ["--grid", "0.5:0.5000000000000001:5:linear"]):
        code, _, err = run_cli(capsys, "tabulate", "mu", "--a", "0.5", "--c", "1", *grid)
        assert code == 2 and "grid" in err, grid


def test_tabulate_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "tabulate", "gamma",
                         "--grid", "1:5:5:linear", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "# gamma,,,"
    assert len(lines) == 6
    assert float(lines[-1].split(",")[1]) == pytest.approx(24.0, rel=1e-12)


# --------------------------------------------------------------------------
# invert / phi / solve

def test_invert_round_trip(capsys):
    code, out, _ = run_cli(capsys, "invert", "--a", "0.5", "--c", "1",
                           "--p", str(math.pi / 2.0))
    assert code == 0
    assert float(out.splitlines()[0]) == pytest.approx(math.sqrt(0.5),
                                                       rel=1e-10)
    assert "method = solver" in out


def test_phi_verb_frozen(capsys):
    code, out, _ = run_cli(capsys, "phi", "--a", "0.5", "--c", "1",
                           "--K", "2", "--r", "0.5")
    assert code == 0
    assert float(out.splitlines()[0]) == pytest.approx(
        0.9428090415820633658677925, rel=1e-10)


def test_solve_reports_residual(capsys):
    code, out, _ = run_cli(capsys, "solve", "--a", "0.25", "--c", "1",
                           "--p", "3", "--r", "0.6")
    assert code == 0
    assert float(out.splitlines()[0]) == pytest.approx(
        0.005052235666512477599151527, rel=1e-9)
    res = [l for l in out.splitlines() if l.startswith("residual = ")]
    assert res and abs(float(res[0].split("=")[1])) < 1e-10


# --------------------------------------------------------------------------
# verify

def test_verify_single_check_report(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "verify", "mutheorem-1",
                           "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert set(rep) == {"run_id", "timestamp", "checks"}
    assert len(rep["checks"]) == 1
    entry = rep["checks"][0]
    assert set(entry) == {"id", "claim", "verdict", "worst_margin",
                          "witness", "samples", "seconds"}
    assert entry["id"] == "mutheorem-1"
    assert entry["verdict"] == "pass"


def test_verify_run_id_stable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "verify", "hyper-1", "--out", str(p1))
    run_cli(capsys, "verify", "hyper-1", "--out", str(p2))
    r1, r2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    assert r1["run_id"] == r2["run_id"]
    c1, c2 = r1["checks"][0], r2["checks"][0]
    assert (c1["verdict"], c1["worst_margin"], c1["samples"]) == \
        (c2["verdict"], c2["worst_margin"], c2["samples"])


def test_verify_unknown_id_exit_4(capsys):
    code, _, err = run_cli(capsys, "verify", "not-a-check")
    assert code == 4
    assert "unknown check id" in err


def test_verify_conjectures_non_gating_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjectures", "--non-gating")
    assert code == 0
    assert "[non-gating]" in out


def test_verify_gating_failure_exit_1(capsys, monkeypatch):
    # exit-code mapping for a failing gating check, via an injected spec
    from genellip import modulus_params_ac, mu
    p = modulus_params_ac(0.5, 1.0)
    bad = CheckSpec(
        id="t-bad", kind="monotone", direction=1,
        claim="inverted on purpose",
        param_grid=GridSpec((GridDim("a", 0.0, 0.0, 1, "linear",
                                     values=(0.5,)),)),
        arg_grid=GridSpec((GridDim("r", 0.05, 0.95, 9, "linear"),)),
        tolerance=1e-9,
        fn=lambda d, r: (lambda e: (e.value, e.abs_err_est))(mu(p, r)))
    monkeypatch.setattr(cli, "select", lambda which: [bad])
    code, out, _ = run_cli(capsys, "verify", "t-bad")
    assert code == 1
    assert "fail" in out
    # and --non-gating downgrades the same run to exit 0
    code2, _, _ = run_cli(capsys, "verify", "t-bad", "--non-gating")
    assert code2 == 0


def test_verify_tol_override_applies(capsys, monkeypatch):
    seen = {}
    real = cli.run_check

    def spy(spec):
        seen["tol"], seen["arg_grid"] = spec.tolerance, spec.arg_grid
        return real(spec)

    monkeypatch.setattr(cli, "run_check", spy)
    run_cli(capsys, "verify", "hyper-1", "--tol", "1e-6")
    assert seen["tol"] == 1e-6
    # --grid replaces the argument grid and keeps its dimension's name
    name = registry()["hyper-1"].arg_grid.dims[0].name
    run_cli(capsys, "verify", "hyper-1", "--grid", "0.01:0.99:9:logit")
    assert seen["arg_grid"] == GridSpec((GridDim(name, 0.01, 0.99, 9, "logit"),))


# --------------------------------------------------------------------------
# the flags each verb reads

# verb: (its positional argument, the flags it reads besides --out and --format)
READS = {
    "eval": ("K", "a b c r z"),
    "tabulate": ("K", "a b c K grid"),
    "invert": (None, "a c p"),
    "phi": (None, "a c K r"),
    "solve": (None, "a c p r"),
    "verify": ("all", "grid tol non-gating"),
    "list-checks": (None, ""),
}
FLAG_VALUES = {"a": "1", "b": "1", "c": "1", "r": "0.5", "z": "0.5", "K": "2",
               "p": "1", "grid": "0.1:0.9:3:linear", "tol": "1e-6", "out": "f",
               "format": "json", "non-gating": None}


def test_each_verb_takes_only_the_flags_it_reads(capsys):
    parser = cli.build_parser()
    accepted = 0
    for verb, (positional, reads) in READS.items():
        for flag, value in FLAG_VALUES.items():
            argv = [verb, *filter(None, (positional, f"--{flag}", value))]
            try:
                parser.parse_args(argv)
                accepted += 1
                parsed = True
            except SystemExit as exc:
                assert exc.code == 2, argv
                parsed = False
            assert parsed == (flag in reads.split() + ["out", "format"]), argv
    assert accepted == 38
    for argv in (["list-checks", "--a", "1"], ["invert", "--a", "0.5", "--c", "1",
                                                 "--p", "1.2", "--r", "0.5"],
                 ["verify", "all", "--K", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# hostile flag values: each flag the drawn verb reads gets one, or is left out
HOSTILE = ("0", "-0", "-1", "0.5", "1", "1e-300", "1e300", "nan", "inf", "-inf", "1e999",
           "True")


@st.composite
def _command_lines(draw):
    """A verb (with a selector for eval and tabulate, a cheap or an unknown
    check for verify) and a hostile value for each flag it reads, written
    --flag=value so that argparse takes -inf as a value."""
    verb = draw(st.sampled_from(sorted(cli._VERBS)))
    argv = [verb]
    if verb in ("eval", "tabulate"):
        argv.append(draw(st.sampled_from(cli.EVAL_FNS if verb == "eval" else cli.TAB_FNS)))
    elif verb == "verify":
        argv.append(draw(st.sampled_from(["hyper-1", "not-a-check"])))
    for flag in cli._VERBS[verb][3].split():
        if flag == "non-gating":
            argv += draw(st.sampled_from([[], ["--non-gating"]]))
            continue
        value = draw(st.sampled_from((None,) + HOSTILE))
        if value is not None and flag == "grid":
            hi = draw(st.sampled_from(HOSTILE))
            value = f"{value}:{hi}:3:{draw(st.sampled_from(['linear', 'log', 'logit']))}"
        if value is not None:
            argv.append(f"--{flag}={value}")
    return argv + ["--format", draw(st.sampled_from(["text", "csv", "json"]))]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(argv=_command_lines())
@example(argv=["eval", "gamma", "--z=200"])
@example(argv=["solve", "--a=0.5", "--c=1", "--p=0", "--r=0.5"])
def test_hostile_flags_end_in_an_exit_code_not_a_traceback(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    # exit 1 is a gating verdict, which only verify without --non-gating gives
    gating = argv[0] == "verify" and "--non-gating" not in argv
    assert code in ({0, 1, 2, 3, 4} if gating else {0, 2, 3, 4}), argv


# --------------------------------------------------------------------------
# list-checks and the module entry point

def test_list_checks_matches_registry(capsys):
    code, out, _ = run_cli(capsys, "list-checks")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(registry())
    assert lines[0].split()[0] in registry()


def test_list_checks_json(capsys):
    code, out, _ = run_cli(capsys, "list-checks", "--format", "json")
    body = json.loads(out)
    assert len(body) == len(registry())
    assert {"id", "kind", "gating", "claim"} <= set(body[0])


def test_module_entry_point():
    # the child finds the package from this checkout's src/, as pytest does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run(
        [sys.executable, "-m", "genellip.cli", "eval", "R",
         "--a", "0.5", "--b", "0.5"],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert float(r.stdout.splitlines()[0]) == pytest.approx(
        math.log(16.0), rel=1e-12)
