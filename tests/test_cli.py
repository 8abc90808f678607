"""Command-line surface: formats, exit codes, determinism, dispatch."""

import hashlib
import json
import os

import numpy as np
import pytest

from critline import bound as bnd
from critline import cli
from critline import constants as cst
from critline import mollifier as mo
from critline import specfun
from critline.errors import DomainError, NumericalConsistencyError, OptimizerError, _check_count

from reference_values import REFERENCE_TABLE


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ happy paths

def test_constants_json(capsys):
    code, out, _ = _run(capsys, ["constants", "--theta", "0.011",
                                 "--A", "2.9e7"])
    assert code == 0
    rec = json.loads(out)
    assert rec["params"]["command"] == "constants"
    assert rec["params"]["theta"] == 0.011
    for key in ("c2", "c3", "c4", "c5", "k1", "k2", "k3", "k4", "rho",
                "c1", "c1_prime"):
        assert key in rec["constants"]


def test_constants_text(capsys):
    code, out, _ = _run(capsys, ["constants", "--theta", "0.011",
                                 "--format", "text"])
    assert code == 0
    assert "constants.k1 = " in out


def test_asymptotic_text(capsys):
    # the scalar bound gets a line of its own beside the dict fields
    argv = ["asymptotic", "--N", "1e20", "--eps", "0.01"]
    code, out, _ = _run(capsys, argv + ["--format", "text"])
    assert code == 0
    bound = json.loads(_run(capsys, argv)[1])["bound"]
    assert f"bound = {bound!r}" in out.splitlines()


def test_optimize_json(capsys):
    code, out, _ = _run(capsys, ["optimize", "--N", "5"])
    assert code == 0
    rec = json.loads(out)
    result = rec["result"]
    assert result["N"] == 5
    assert result["bound"] >= REFERENCE_TABLE[4][3] * 0.999
    assert rec["params"]["theta_grid"] == 10000


def test_table_text(capsys):
    code, out, _ = _run(capsys, ["table"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 9
    assert lines[0].split() == ["N", "A", "theta", "bound"]
    first = lines[1].split()
    assert first[0] == "1"
    assert float(first[3]) >= 5.45e-8


def test_table_csv(capsys):
    code, out, _ = _run(capsys, ["table", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,A,theta,bound"
    assert len(lines) == 9
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == [1, 2, 3, 4, 5, 10, 100, 1000]


def test_mollify_csv_rows(capsys):
    code, out, _ = _run(capsys, ["mollify", "--t-lo", "100", "--t-hi", "160",
                                 "--step", "0.05", "--xi", "50",
                                 "--theta", "0.5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x,x_mollified,x_mollified_selberg"
    assert len(lines) == 1202
    assert out.endswith("\n")


def test_mollify_json(capsys):
    code, out, _ = _run(capsys, ["mollify", "--t-lo", "10", "--t-hi", "11",
                                 "--step", "0.5", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["columns"] == ["t", "x", "x_mollified", "x_mollified_selberg"]
    assert len(rec["rows"]) == 3


def test_detect_json(capsys):
    code, out, _ = _run(capsys, ["detect", "--t-lo", "14", "--t-hi", "16",
                                 "--quad-step", "0.01"])
    assert code == 0
    rec = json.loads(out)
    assert rec["count"] == 1
    assert len(rec["ordinates"]) == 1
    assert len(rec["windows"]) == 2
    for key in ("t", "H", "I", "J", "m_re", "m_im", "sign_changes"):
        assert key in rec["windows"][0]


def test_detect_windows_match_window_integrals(capsys):
    code, out, _ = _run(capsys, ["detect", "--t-lo", "0", "--t-hi", "100"])
    assert code == 0
    rec = json.loads(out)
    assert len(rec["windows"]) == 100
    cfg = mo.MollifierConfig()
    for win in rec["windows"]:
        ws = mo.window_integrals(win["t"], cfg)
        assert win == {"t": ws.t, "H": ws.H, "I": ws.I, "J": ws.J,
                       "m_re": ws.M_val.real, "m_im": ws.M_val.imag,
                       "sign_changes": ws.sign_changes}


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = _run(capsys, ["mollify", "--t-lo", "10", "--t-hi", "11",
                                 "--step", "0.5", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("t,x,")


def test_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = _run(capsys, ["asymptotic", "--N", "1e20", "--eps",
                                   "0.01", "--output", str(target)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert not target.exists()


def test_prime_cutoff_flag(capsys):
    _, out_default, _ = _run(capsys, ["constants", "--theta", "0.011"])
    code, out_small, _ = _run(capsys, ["constants", "--theta", "0.011",
                                       "--prime-cutoff", "100000"])
    assert code == 0
    k1_default = json.loads(out_default)["constants"]["k1"]
    k1_small = json.loads(out_small)["constants"]["k1"]
    assert k1_small != k1_default
    assert k1_small == pytest.approx(k1_default, rel=1e-4)


def test_prime_cutoff_flag_does_not_leak(capsys, monkeypatch):
    monkeypatch.delenv("CRITLINE_PRIME_CUTOFF", raising=False)
    before = dict(os.environ)
    default = cst.k_constants(0.011)
    code, _, _ = _run(capsys, ["constants", "--theta", "0.011",
                               "--prime-cutoff", "1000"])
    assert code == 0
    assert cst.PRIME_CUTOFF == 10 ** 6
    assert cst.k_constants(0.011) == default
    assert dict(os.environ) == before


@pytest.mark.parametrize("cutoff", ["0", "1"])
def test_prime_cutoff_below_two_exit_3(capsys, cutoff):
    code, out, err = _run(capsys, ["constants", "--theta", "0.011",
                                   "--prime-cutoff", cutoff])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_prime_cutoff_above_limit_exit_3(capsys, monkeypatch):
    # Refused before the sieve is called, which would allocate 500 GB.
    def no_sieve(cutoff):
        raise AssertionError(f"sieved up to {cutoff}")

    monkeypatch.setattr(specfun, "_sieve", no_sieve)
    code, out, err = _run(capsys, ["constants", "--theta", "0.3",
                                   "--prime-cutoff", "1000000000000"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"
    assert "limit" in json.loads(err)["message"]


# The exact params echo of each subcommand; with --prime-cutoff 1000 each
# command of the bound chain also has prime_cutoff.
_ECHO_CASES = {
    "constants": (["constants", "--theta", "0.011"],
                  {"A": None, "command": "constants", "kappa": 0.125,
                   "n_rect": 100, "theta": 0.011}),
    "optimize": (["optimize", "--N", "2", "--theta-grid", "50"],
                 {"N": 2, "command": "optimize", "kappa": 0.125,
                  "n_rect": 100, "theta_grid": 50}),
    "table": (["table", "--theta-grid", "50", "--format", "json"],
              {"command": "table", "kappa": 0.125, "n_rect": 100,
               "theta_grid": 50}),
    "asymptotic": (["asymptotic", "--N", "1e20", "--eps", "0.01"],
                   {"N": 1e20, "command": "asymptotic", "eps": 0.01,
                    "kappa": 0.125}),
    "mollify": (["mollify", "--t-lo", "10", "--t-hi", "11", "--step", "0.5",
                 "--format", "json"],
                {"H": 1.0, "command": "mollify", "quad_step": None,
                 "step": 0.5, "t_hi": 11.0, "t_lo": 10.0, "theta": 0.5,
                 "variant": "piecewise", "xi": 50.0}),
    "detect": (["detect", "--t-lo", "14", "--t-hi", "16"],
               {"H": 1.0, "command": "detect", "quad_step": None,
                "t_hi": 16.0, "t_lo": 14.0, "theta": 0.5,
                "variant": "piecewise", "xi": 50.0}),
}


_SCAN_COMMANDS = ("detect", "mollify")


@pytest.mark.parametrize("command,with_cutoff", [
    (command, with_cutoff) for command in sorted(_ECHO_CASES)
    for with_cutoff in (False, True)
    if not (with_cutoff and command in _SCAN_COMMANDS)])
def test_params_echo_frozen(capsys, command, with_cutoff):
    argv, want = _ECHO_CASES[command]
    if with_cutoff:
        argv = argv + ["--prime-cutoff", "1000"]
        want = dict(want, prime_cutoff=1000)
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["params"] == want


# ---------------------------------------------------------------- determinism

def test_byte_identical_reruns(capsys):
    argv = ["mollify", "--t-lo", "30", "--t-hi", "32", "--step", "0.1"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    argv = ["optimize", "--N", "2"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


# ----------------------------------------------------------------- exit codes

def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["optimize"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", _SCAN_COMMANDS)
def test_scan_commands_refuse_prime_cutoff(capsys, command):
    # the scan never reads the Euler-product cutoff, so it takes no flag
    with pytest.raises(SystemExit) as info:
        cli.main(_ECHO_CASES[command][0] + ["--prime-cutoff", "1000"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [[]] + [[name] for name in cli._COMMANDS],
                         ids=["critline"] + list(cli._COMMANDS))
def test_help_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: critline")


def test_unknown_command_exit_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_unsupported_format_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["detect", "--format", "csv"])
    assert info.value.code == 2


def test_domain_error_exit_3(capsys):
    code, out, err = _run(capsys, ["constants", "--theta", "1.5"])
    assert code == 3
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ["constants", "--theta", "0.011", "--A", "0"],
    ["constants", "--theta", "0.011", "--A", "0.5"],
    ["constants", "--theta", "0.011", "--A", "nan"],
    ["constants", "--theta", "0.011", "--A", "inf"],
    ["asymptotic", "--N", "nan", "--eps", "0.01"],
    ["asymptotic", "--N", "inf", "--eps", "0.01"],
    ["constants", "--theta", "1e-170"],
    ["constants", "--theta", "0.9", "--kappa", "1e-305"],
    ["asymptotic", "--N", "1e20", "--eps", "1e-120"],
    ["asymptotic", "--N", "1e20", "--eps", "1e-105"],
    ["asymptotic", "--N", "1e20", "--eps", "0.01", "--kappa", "1e-200"],
    ["constants", "--theta", "0.011", "--A", "1e308"],
], ids=["A_0", "A_half", "A_nan", "A_inf", "N_nan", "N_inf", "c2_inf", "c3_inf",
        "eps_cubed_0", "eps_cubed_subnormal", "kappa_squared_0", "c1_inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_domain_flag_exit_3(capsys, argv):
    # c1 needs 1 < A < inf, the asymptotic bound a finite N, and every
    # constant must be a finite double: no traceback, no numpy warning, no
    # NaN or Infinity in a record (not valid JSON) and no negative c1
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("argv,names", [
    (["asymptotic", "--N", "1e20", "--eps", "1e-120"], "eps^3 = 0 leaves the normal"),
    (["asymptotic", "--N", "1e20", "--eps", "1e-105"], "eps^3 = 1e-315 leaves the normal"),
    (["constants", "--theta", "0.011", "--A", "1e308"], "c1 at A = 1e+308"),
], ids=["eps_cubed_0", "eps_cubed_subnormal", "c1_inf"])
def test_out_of_domain_message_names_cause(capsys, argv, names):
    # an eps^3 that is 0 or subnormal is one cause with one message, and a
    # non-finite c1 or c1' is named
    _, _, err = _run(capsys, argv)
    assert names in json.loads(err)["message"]


@pytest.mark.parametrize("argv,code,names", [
    (["optimize", "--N", "5", "--kappa", "1e-100", "--theta-grid", "50"], 3, "in c2"),
    (["optimize", "--N", "5", "--kappa", "1e-150", "--theta-grid", "50"], 3,
     "in c2, k4, int_vc7"),
    (["table", "--kappa", "1e-300"], 3, "in c2, c3, k2, k4, int_c7"),
    (["optimize", "--N", "5", "--kappa", "1e-90", "--theta-grid", "50"], 4, "N=5"),
    (["table", "--kappa", "1e-90"], 4, "N=1"),
], ids=["c2_inf", "k4_inf", "table_1e-300", "search_overflows", "table_1e-90"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_kappa_one_error_line(capsys, argv, code, names):
    # At a tiny kappa the optimizer ends with one JSON error line and no
    # numpy warning: a DomainError naming the constant-chain columns that
    # leave the doubles, or, where the chain is finite but every A-search
    # overflows, the OptimizerError of an infeasible grid.
    got, out, err = _run(capsys, argv)
    assert (got, out, err.count("\n")) == (code, "", 1)
    diag = json.loads(err)
    assert diag["error"] == ("DomainError" if code == 3 else "OptimizerError")
    assert names in diag["message"]


def test_domain_messages_show_plain_numbers(capsys):
    # A numpy scalar in a DomainError message reads as the number it holds,
    # not as np.float64(...): the grid row the CLI reports, each check
    # handed a numpy scalar, and the calls that name their arguments.
    _, _, err = _run(capsys, ["optimize", "--N", "1", "--kappa", "1e-300"])
    message = json.loads(err)["message"]
    assert message.endswith("first at theta = 0.0001") and "np." not in message
    for check, want in ((lambda: cst._check_theta(np.float64(2.0)), "got 2.0"),
                        (lambda: cst._check_kappa(np.float32(0.5)), "got 0.5"),
                        (lambda: _check_count("n", np.int64(0), 1), "got 0"),
                        (lambda: cst.c1(np.float64(1e308), np.float64(0.011)),
                         "c1(1e+308, 0.011) is not finite in value"),
                        (lambda: bnd.asymptotic_bound(1e20, np.float64(1e-105)),
                         "at eps = 1e-105, so the threshold N0/eps^3 cannot be formed")):
        with pytest.raises(DomainError) as info:
            check()
        assert want in str(info.value) and "np." not in str(info.value)


@pytest.mark.parametrize("argv", [
    ["constants", "--theta", "0.011", "--A", "29056699.107509706"],
    ["asymptotic", "--N", "1e20", "--eps", "0.01"],
    ["optimize", "--N", "2", "--theta-grid", "50"],
], ids=["constants", "asymptotic", "optimize"])
def test_default_cutoff_never_sieves(capsys, argv):
    # the default-cutoff Euler products are stored literals: a cold
    # invocation at the default cutoff runs no prime sieve, one with
    # --prime-cutoff does
    for cutoff, sieved in ((None, False), ("1000", True)):
        specfun._sieve.cache_clear()
        specfun.euler_product.cache_clear()
        extra = [] if cutoff is None else ["--prime-cutoff", cutoff]
        code, _, _ = _run(capsys, argv + extra)
        assert code == 0
        assert (specfun._sieve.cache_info().misses > 0) == sieved


@pytest.mark.parametrize("argv", [
    ["detect", "--xi", "1e13"],
    ["detect", "--quad-step", "1e-13"],
    ["detect", "--t-hi", "100", "--H", "1e-9"],
    ["mollify", "--step", "1e-9"],
    ["constants", "--theta", "0.3", "--n-rect", str(10 ** 12)],
    ["optimize", "--N", "2", "--theta-grid", str(10 ** 11)],
], ids=["xi", "quad_step", "windows", "figure_rows", "n_rect", "theta_grid"])
def test_size_limit_exit_3(capsys, argv):
    # without the size limits each of these runs out of memory or never ends
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_range_error_exit_3(capsys):
    code, _, err = _run(capsys, ["detect", "--t-lo", "5", "--t-hi", "4"])
    assert code == 3
    assert "Error" in json.loads(err)["error"]
    for argv in (["detect", "--t-lo", "5", "--t-hi", "nan"],
                 ["mollify", "--t-hi", "nan"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "RangeError"


def test_imaginary_rotated_value_exit_3(capsys, monkeypatch):
    # a rotated value whose imaginary part reaches 1e-8 is a numerical
    # inconsistency, not rounding noise to discard
    zeta_critical = specfun._zeta_critical_vec

    def tilted(t):
        zeta, rotated = zeta_critical(t)
        return zeta, rotated + 1.0e-8j

    monkeypatch.setattr(specfun, "_zeta_critical_vec", tilted)
    with pytest.raises(NumericalConsistencyError):
        mo.hardy_x(14.0)
    code, out, err = _run(capsys, ["detect", "--t-lo", "14", "--t-hi", "15"])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "NumericalConsistencyError"


def test_detect_empty_range(capsys):
    code, out, _ = _run(capsys, ["detect", "--t-lo", "5", "--t-hi", "5"])
    assert code == 0
    rec = json.loads(out)
    assert (rec["count"], rec["ordinates"], rec["windows"]) == (0, [], [])
    code, _, err = _run(capsys, ["detect", "--t-lo", "10", "--t-hi", "5"])
    assert code == 3
    assert json.loads(err)["error"] == "RangeError"


def test_precondition_error_exit_3(capsys):
    code, _, err = _run(capsys, ["asymptotic", "--N", "2", "--eps", "0.01"])
    assert code == 3
    assert json.loads(err)["error"] == "PreconditionError"


def test_optimizer_error_exit_4(capsys, monkeypatch):
    def boom(cfg):
        raise OptimizerError("no feasible stationary point")
    monkeypatch.setitem(cli._COMMANDS, "optimize",
                        (boom,) + cli._COMMANDS["optimize"][1:])
    code, _, err = _run(capsys, ["optimize", "--N", "1"])
    assert code == 4
    assert json.loads(err)["error"] == "OptimizerError"


# ------------------------------------------------------------ golden output

# sha256 of stdout, frozen byte for byte.  A change to default output must
# re-freeze the digest on purpose and record the old and new values.
GOLDEN_STDOUT = {
    "table text": "11b8ea2df06334e6733683da317b60f06d506d0602c3f472177cc090611615b0",
    "table json": "450dcf2036add054e67e50ba793b0441485ac746dda60138ce7647e2f5eb579a",
    "table csv": "9116c66c0123a27ca6c9652a6c7ddf279dba8004523480688dcd8567043a443f",
    "optimize --N 5": "d64dbc856bf5f3be593b9796d1c8ba7ef00b00c52d39f09ebf68f0b62a682607",
    # the first refinement grid reaches theta = 0 and 1 at --theta-grid 2
    "optimize --N 3 --theta-grid 2":
        "5b20b939cb1851e1f5c1a6b86b5303919a26b9f1f6c1c642276a5ace14c9a96b",
    "constants --theta 0.011 --A 2.9e7":
        "1fb4449a44650a37e54a9afe67f9f790929104893428566fa654829ed3f2075c",
    # c1 and c1_prime print as plain floats, not numpy scalar reprs
    "constants --theta 0.011 --A 2.9e7 --format text":
        "81bad2af7242cf748332323f1422b48209edf1b93ae511c71497ffde749a49a6",
    "mollify": "798803b57705730d0adf908eb5da51fced571a6d37fe0f7868bb5fbe6a45edc0",
    "detect --t-lo 0 --t-hi 100":
        "c8f53cd215ee0500ceac1f7fcf39f0b98fb49c4c7d09bc28aefb1a796dc23e9a",
    "asymptotic --N 1e20 --eps 0.01":
        "4a01e54cdd9df23df0c95f456c40d8a956f9b303b8a04f285b405b33e5c24293",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_golden_stdout(capsys, command):
    # A numpy RuntimeWarning would raise here, and stderr stays empty.
    argv = command.split()
    if argv[0] == "table":
        argv = ["table", "--format", argv[1]]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]
