"""Command-line output and exit codes."""

from __future__ import annotations

import re
import warnings

import pytest

import deltamax as dm
from deltamax import catalog, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fields(out: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in out.splitlines())


class TestCertify:
    def test_square_sandwich(self, capsys):
        code, out, _ = run(capsys, "certify", "--fn", "square", "--p", "3", "--eps", "1")
        assert code == cli.EXIT_OK
        got = fields(out)
        assert got["sandwich_ok"] == "true"
        assert float(got["oracle_lower"]) <= float(got["value"])


class TestFloatResolutionExit:
    @pytest.mark.parametrize("p,eps", [("1e8", "1e-9"), ("1e200", "1")])
    def test_delta(self, capsys, p, eps):
        code, out, err = run(capsys, "delta", "--fn", "square", "--p", p, "--eps", eps)
        assert code == cli.EXIT_RESOLUTION == 5
        assert out == ""
        assert "float64" in err

    def test_uc_image_spread_overflows(self, capsys):
        # The default eps grid reads the sampled image spread, which is +inf
        # for 1e302*x on the truncated line: no eps is tested.
        code, out, err = run(capsys, "uc", "--fn", "1e302*x")
        assert code == cli.EXIT_RESOLUTION == 5
        assert out == ""
        assert "overflows float64" in err


class TestInvalidArgumentExit:
    @pytest.mark.parametrize("argv", [
        ("delta", "--fn", "square", "--p", "1", "--eps", "0"),
        ("scan", "--fn", "square", "--eps", "0", "--p-min", "0", "--p-max", "1",
         "--p-count", "2"),
    ])
    def test_eps_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE == 2
        assert out == ""
        assert err.startswith("error:")

    def test_scan_without_eps(self, capsys):
        code, out, err = run(capsys, "scan", "--fn", "square", "--p-min", "0",
                             "--p-max", "1", "--p-count", "2")
        assert (code, out, err) == (cli.EXIT_PARSE, "", "error: scan needs --eps or --eps-grid\n")

    @pytest.mark.parametrize("argv", [
        ("inf", "--fn", "square", "--eps", "1", "--resolution", "0"),
        ("certify", "--fn", "square", "--p", "3", "--eps", "1", "--h", "-1"),
        ("certify", "--fn", "square", "--p", "3", "--eps", "1", "--h", "nan"),
    ])
    def test_bad_grid_sizes(self, capsys, argv):
        # A stage of no points and a grid step <= 0 are bad arguments.
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, what", [
        (("inf", "--fn", "square", "--eps", "1", "--stages", "0"), "stages"),
        (("inf", "--fn", "square", "--eps", "1", "--stages", "-1"), "stages"),
        (("inf", "--fn", "square", "--domain", "interval:0:1", "--eps", "1",
          "--stages", "0"), "stages"),
        (("uc", "--fn", "square", "--eps-grid=0.5,-1"), "eps"),
        (("uc", "--fn", "square", "--eps-grid=0.5,nan"), "eps"),
        (("certify", "--fn", "square", "--p", "3", "--eps", "1", "--h", "0"), "grid step"),
        (("certify", "--fn", "square", "--p", "3", "--eps", "1", "--window-radius", "0"),
         "window radius"),
        (("certify", "--fn", "square", "--p", "3", "--eps", "1", "--window-radius", "-1"),
         "window radius"),
        (("certify", "--fn", "square", "--p", "3", "--eps", "1", "--window-radius", "nan"),
         "window radius"),
        (("delta", "--fn", "exp(r)", "--dim", "0", "--p", "1", "--eps", "0.5"), "--dim"),
        (("scan", "--fn", "square", "--eps", "1", "--p-min", "0", "--p-max", "1",
          "--p-count", "0"), "--p-count"),
        (("scan", "--fn", "square", "--eps", "1", "--p-min", "0", "--p-max", "1",
          "--p-count", "-2"), "--p-count"),
    ])
    def test_bad_numeric_flags(self, capsys, argv, what):
        # A bad count, step, radius or eps is refused by name, never read
        # as "absent" or carried into an empty output.
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE == 2
        assert out == ""
        assert err.startswith("error:") and what in err

    @pytest.mark.parametrize("argv, what", [
        (("delta", "--fn", "square", "--p", "1", "--eps", "inf"), "eps"),
        (("inf", "--fn", "square", "--eps", "inf"), "eps"),
        (("uc", "--fn", "x", "--domain", "interval:0:1", "--eps-grid", "inf"), "eps"),
        (("scan", "--fn", "square", "--eps", "inf", "--p-min", "0", "--p-max", "1",
          "--p-count", "2"), "eps"),
        (("certify", "--fn", "square", "--p", "3", "--eps", "1", "--window-radius", "inf"),
         "window radius"),
        (("certify", "--fn", "square", "--p", "3", "--eps", "1", "--h", "inf"), "grid step"),
    ], ids=["delta", "inf", "uc", "scan", "certify", "certify_step"])
    def test_infinite_values(self, capsys, argv, what):
        # An infinite eps or radius is refused up front: not searched out to
        # the truncation radius, skipped at every point or written into
        # every scan row.
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE == 2
        assert out == ""
        assert err == f"error: {what} must be a positive finite number, got inf\n"

    @pytest.mark.parametrize("p_min, p_max", [("0", "inf"), ("-1e308", "1e308")])
    def test_scan_refuses_a_non_finite_grid(self, capsys, p_min, p_max):
        # An infinite end, or a span that overflows, gives grid points of
        # inf or NaN: one error line naming the flags, exit 2, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "scan", "--fn", "square", "--eps", "1",
                                 f"--p-min={p_min}", f"--p-max={p_max}", "--p-count", "3")
        assert code == cli.EXIT_PARSE == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: --p-min and --p-max")

    @pytest.mark.parametrize("count", ["1", "0"])
    def test_uc_count_below_three(self, capsys, count):
        # f(x) = x is uniformly continuous: a chain of fewer than three
        # pairs is no evidence against it, so the count itself is refused.
        code, out, err = run(capsys, "uc", "--fn", "x", "--domain", "interval:0:1",
                             "--eps-grid", "0.5", "--count", count)
        assert code == cli.EXIT_PARSE == 2
        assert out == ""
        assert err.startswith("error:")


class TestDeltaStats:
    @pytest.mark.parametrize("argv, key", [
        (("--fn", "square", "--p", "3", "--eps", "1"), "detect_rounds"),
        (("--fn", "x1*x2", "--domain", "box:-2,-2:2,2", "--p", "0.5,0.5", "--eps", "0.5"),
         "searched_radius"),
    ])
    def test_stats_lines(self, capsys, argv, key):
        code, plain, _ = run(capsys, "delta", *argv)
        assert code == cli.EXIT_OK
        code, out, _ = run(capsys, "delta", *argv, "--stats")
        assert code == cli.EXIT_OK
        assert out.startswith(plain)  # the result lines are unchanged
        stats = [line.split(" ") for line in out[len(plain):].splitlines()]
        assert all(len(words) == 3 and words[0] == "stat" for words in stats)
        assert key in {words[1] for words in stats}
        assert "stat" not in fields(plain)


GOLDEN = {
    ("certify", "--fn", "square", "--p", "3", "--eps", "1"): """\
value 0.16227766016837952
backend levelset1d
oracle_lower 0.16196071161336315
oracle_upper 0.16227766016837952
oracle_step 0.00031694855501636626
grid_slack 0.00031694855501636626
sandwich_ok true
""",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden(capsys, argv):
    assert run(capsys, *argv) == (cli.EXIT_OK, GOLDEN[argv], "")


# Byte goldens of the paths no other test runs: scan's rows (the p = 0
# row of square pins the proved bracket at a stationary point, the x row
# at 0.5 a point left to the sampled engine, its crossings sitting on the
# domain's two ends, and log_norm's origin row fills the error column), the catalog
# manifest, and uc's output with its exit codes 10 and 0.
OUTPUT = {
    ("scan", "--fn", "square", "--p-min", "-1", "--p-max", "1", "--p-count", "5",
     "--eps", "0.5"): (cli.EXIT_OK, """\
p,eps,delta,lower,upper,backend,error
-1,0.5,0.22474487139159227,0.22474487139158669,0.2247448713915923,levelset1d,
-0.5,0.5,0.36602540378444126,0.3660254037844301,0.36602540378444132,levelset1d,
0,0.5,0.70710678118654757,0.70710678118654735,0.70710678118654779,levelset1d,
0.5,0.5,0.36602540378444126,0.3660254037844301,0.36602540378444132,levelset1d,
1,0.5,0.22474487139159227,0.22474487139158669,0.2247448713915923,levelset1d,
"""),
    ("scan", "--fn", "log_norm", "--p-min", "0", "--p-max", "1", "--p-count", "3",
     "--eps", "0.5"): (cli.EXIT_OK, """\
p,eps,delta,lower,upper,backend,error
0,0.5,nan,nan,nan,,(0.0; 0.0) is outside the domain annulus:0.0:inf:open-inner:dim=2
0.5,0.5,0.19673467014368329,0.19673467014367971,0.19673467014368681,radial,
1,0.5,0.39346934028736658,0.39346934028736474,0.3934693402873683,radial,
"""),
    # Row errors of scan's other kinds: a NaN f(p) (NonFinite), an f(p)
    # of -inf (FloatResolutionLimit) and, at the second eps of a grid, an
    # empty sphere preimage.
    ("scan", "--fn", "ln(x)", "--p-min", "-2", "--p-max", "2", "--p-count", "5",
     "--eps", "0.5"): (cli.EXIT_OK, """\
p,eps,delta,lower,upper,backend,error
-2,0.5,nan,nan,nan,,f(-2.0) = nan
-1,0.5,nan,nan,nan,,f(-1.0) = nan
0,0.5,nan,nan,nan,,f(0.0) = -inf is beyond the float64 range; so delta(p; eps) cannot be resolved at this point
1,0.5,0.39346934028736658,0.39346934028736474,0.3934693402873683,levelset1d,
2,0.5,0.78693868057473315,0.78693868057472594,0.78693868057474015,levelset1d,
"""),
    # f(p) of -inf and of +inf beside good rows: the strict f(p) rule read
    # off the line engine's one f(p) read of the batch.
    ("scan", "--fn=-1/x^2", "--p-min", "1e-200", "--p-max", "1", "--p-count", "3",
     "--eps", "0.5"): (cli.EXIT_OK, """\
p,eps,delta,lower,upper,backend,error
9.9999999999999998e-201,0.5,nan,nan,nan,,f(1e-200) = -inf is beyond the float64 range; so delta(p; eps) cannot be resolved at this point
0.5,0.5,0.028595479208968322,0.028595479208968096,0.028595479208968714,levelset1d,
1,0.5,0.18350341907294776,0.18350341907223786,0.18350341907294779,levelset1d,
"""),
    ("scan", "--fn", "square", "--p-min", "-1", "--p-max", "1e200", "--p-count", "3",
     "--eps", "0.5"): (cli.EXIT_OK, """\
p,eps,delta,lower,upper,backend,error
-1,0.5,0.22474487139159227,0.22474487139158669,0.2247448713915923,levelset1d,
4.9999999999999998e+199,0.5,nan,nan,nan,,f(5e+199) = inf is beyond the float64 range; so delta(p; eps) cannot be resolved at this point
9.9999999999999997e+199,0.5,nan,nan,nan,,f(1e+200) = inf is beyond the float64 range; so delta(p; eps) cannot be resolved at this point
"""),
    ("scan", "--fn", "x", "--domain", "interval:0:1", "--p-min", "0", "--p-max", "1",
     "--p-count", "3", "--eps-grid", "0.5,5"): (cli.EXIT_OK, """\
p,eps,delta,lower,upper,backend,error
0,0.5,0.5,0.49999999999999439,0.50000000000000566,levelset1d,
0.5,0.5,0.5,0.49999999999999301,0.5,levelset1d,
1,0.5,0.5,0.49999999999999439,0.50000000000000566,levelset1d,
0,5,nan,nan,nan,,no point with |f(x)-f(0.0)| = 5.0 found within radius 1.0: the sphere preimage looks empty there; so the nonemptiness hypothesis behind delta(p; eps) fails
0.5,5,nan,nan,nan,,no point with |f(x)-f(0.5)| = 5.0 found within radius 0.5: the sphere preimage looks empty there; so the nonemptiness hypothesis behind delta(p; eps) fails
1,5,nan,nan,nan,,no point with |f(x)-f(1.0)| = 5.0 found within radius 1.0: the sphere preimage looks empty there; so the nonemptiness hypothesis behind delta(p; eps) fails
"""),
    ("catalog",): (cli.EXIT_OK, """\
square|x^2|interval:-inf:inf
identity|x|interval:-inf:inf
exp_norm|exp(r)|ball:0.0,0.0:inf:dim=2
log_norm|ln(r)|annulus:0.0:inf:open-inner:dim=2
"""),
    ("uc", "--fn", "sin(1/x)", "--domain", "interval:0:1:open-left", "--eps-grid", "0.5",
     "--count", "3"): (cli.EXIT_NOT_UC, """\
verdict evidence-not-uc
eps_tested 0.5
witness_eps 0.5
witness_pairs x | y | distance
  0.84089641525371461 | 0.37047573653038079 | 0.47042067872333382
  0.59460355750136051 | 0.38094001592226756 | 0.21366354157909295
  0.42044820762685736 | 0.33907662559052448 | 0.081371582036332865
note distances halve while |f(x)-f(y)| stays at eps; evidence, not a proof
"""),
    ("uc", "--fn", "sqrt(x)", "--domain", "half_line:0", "--eps-grid", "0.5"): (cli.EXIT_OK, """\
verdict evidence-uc
eps_tested 0.5
delta_floor 0.25000000000049999
note floor is numerical evidence from sampled windows, not a proof
"""),
    # No x on [0, 1] has |x - p| = 5: every stage skipped every point.
    ("uc", "--fn", "x", "--domain", "interval:0:1", "--eps-grid", "5"): (cli.EXIT_INCONCLUSIVE, """\
verdict inconclusive
eps_tested 5
reason at eps 5 all 4 stages skipped every point: no x with |f(x) - f(p)| = eps was found
"""),
}


@pytest.mark.parametrize("argv", sorted(OUTPUT), ids=" ".join)
def test_output(capsys, monkeypatch, argv):
    monkeypatch.setattr(catalog, "_REGISTRY", {})  # the builtins only
    code, out = OUTPUT[argv]
    assert run(capsys, *argv) == (code, out, "")


class TestFlags:
    """Each subcommand takes exactly the flags it reads."""

    PROBLEM = ["--domain", "--dim", "--out"]
    RAYS = ["--directions"]
    # subcommand -> (required arguments, optional flags)
    FLAGS = {
        "delta": (["--fn", "square", "--p", "1", "--eps", "1"],
                  PROBLEM + RAYS + ["--stats"]),
        "scan": (["--fn", "square", "--p-min", "0", "--p-max", "1", "--p-count", "2"],
                 PROBLEM + RAYS + ["--eps", "--eps-grid"]),
        "inf": (["--fn", "square", "--eps", "1"], PROBLEM + ["--stages", "--resolution"]),
        "uc": (["--fn", "square"], PROBLEM + ["--eps-grid", "--count", "--trace"]),
        "catalog": ([], ["--out", "--load"]),
        "certify": (["--fn", "square", "--p", "1", "--eps", "1"],
                    PROBLEM + RAYS + ["--h", "--window-radius"]),
    }
    SWITCHES = {"--stats"}

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_every_flag_parses(self, command):
        required, flags = self.FLAGS[command]
        for flag in flags:
            value = [] if flag in self.SWITCHES else ["1"]
            args = cli.build_parser().parse_args([command, *required, flag, *value])
            assert getattr(args, flag[2:].replace("-", "_")) not in (None, False), flag

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_no_other_flag(self, capsys, command):
        required, flags = self.FLAGS[command]
        code, out, _ = run(capsys, command, "--help")
        assert code == cli.EXIT_OK
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        assert listed == {"--help", *flags, *(a for a in required if a.startswith("--"))}

    @pytest.mark.parametrize("argv", [
        ("catalog", "--directions", "3"),
        ("catalog", "--fn", "square"),
        ("uc", "--fn", "square", "--seed", "1"),
        ("inf", "--fn", "square", "--eps", "1", "--directions", "3"),
        ("delta", "--fn", "square", "--p", "3", "--eps", "1", "--certify"),
        ("delta", "--fn", "square", "--p", "3", "--eps", "1", "--r-max", "10"),
        ("delta", "--fn", "square", "--p", "3", "--eps", "1", "--seed", "1"),
    ])
    def test_unread_flags_are_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE == 2
        assert out == ""
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("fn, domain", [
    ("x^2", "interval:-inf:inf"),
    ("exp(r)", "ball:0,0:inf"),
    ("x1*x2", "box:-inf,-inf:inf,inf"),
    ("square", "interval:-inf:inf"),
])
def test_natural_domain_is_the_default(capsys, fn, domain):
    p = "1,1" if fn == "x1*x2" else "0.5"
    argv = ("delta", "--fn", fn, "--p", p, "--eps", "0.5")
    default = run(capsys, *argv)
    assert default[0] == cli.EXIT_OK
    assert default == run(capsys, *argv, "--domain", domain)


@pytest.mark.parametrize("argv", [
    ("delta", "--p", "1,1", "--eps", "0.5"),
    ("scan", "--p-min", "0", "--p-max", "1", "--p-count", "2", "--eps", "0.5"),
    ("inf", "--eps", "0.5"),
    ("uc", "--eps-grid", "0.5"),
    ("uc",),
])
def test_function_wider_than_domain_exits_4(capsys, argv):
    # x3 does not exist on a 2-d box: a dimension error wherever f is
    # evaluated, not a parse error, a skipped point or a verdict.
    code, out, err = run(capsys, *argv, "--fn", "x1*x3", "--domain", "box:-2,-2:2,2")
    assert code == cli.EXIT_DOMAIN == 4
    assert out == ""
    assert "3-d function" in err


class TestFailurePath:
    """Each DeltamaxError ends a subcommand with its class's exit_code and
    one `error:` line; anything else is a fault of the program."""

    EXIT_CODES = {
        "DeltamaxError": 2, "InvalidArgument": 2, "DomainParseError": 2,
        "LexError": 2, "ParseError": 2, "UnboundVariable": 2,
        "UnknownCatalogEntry": 2, "WitnessesStagnated": 2,
        "EmptySpherePreimage": 3, "ConstantFunction": 3,
        "DimensionMismatch": 4, "DomainViolation": 4, "NonFinite": 4,
        "InvalidDomain": 4, "WindowTooSmall": 4,
        "FloatResolutionLimit": 5,
    }

    def test_every_exported_error_has_a_code(self):
        exported = {name for name in dm.__all__ if isinstance(getattr(dm, name), type)
                    and issubclass(getattr(dm, name), dm.DeltamaxError)}
        assert exported == set(self.EXIT_CODES)
        assert {name: getattr(dm, name).exit_code for name in exported} == self.EXIT_CODES

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_main_exits_with_the_code(self, capsys, monkeypatch, name):
        cls = getattr(dm, name)
        if cls in (dm.LexError, dm.ParseError):
            exc, text = cls(7, "boom"), "7: boom"
        elif cls is dm.EmptySpherePreimage:
            exc, text = cls("boom", searched_radius=1.0), "boom"
        else:
            exc, text = cls("boom"), "boom"

        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_catalog", fail)
        assert run(capsys, "catalog") == (self.EXIT_CODES[name], "", f"error: {text}\n")

    def test_a_plain_value_error_propagates(self, monkeypatch):
        def fail(args):
            raise ValueError("inconsistent bounds")

        monkeypatch.setattr(cli, "cmd_catalog", fail)
        with pytest.raises(ValueError, match="inconsistent bounds"):
            cli.main(["catalog"])

    @pytest.mark.parametrize("argv, what", [
        (("delta", "--fn", "square", "--p", "1,abc", "--eps", "0.5"), "--p"),
        (("certify", "--fn", "square", "--p", "3,", "--eps", "1"), "--p"),
        (("scan", "--fn", "x", "--eps-grid", "0.5,abc", "--p-min", "0", "--p-max", "1",
          "--p-count", "2"), "--eps-grid"),
        (("uc", "--fn", "x", "--domain", "interval:0:1", "--eps-grid", ""), "--eps-grid"),
        (("delta", "--fn", "x", "--domain", "", "--p", "0.5", "--eps", "0.1"),
         "empty domain text"),
        (("catalog", "--load", "{missing}/m.txt"), "{missing}/m.txt"),
        (("delta", "--fn", "square", "--p", "3", "--eps", "1", "--out", "{missing}/o.txt"),
         "{missing}/o.txt"),
        (("uc", "--fn", "x", "--domain", "interval:0:1", "--eps-grid", "0.5",
          "--trace", "{missing}/t.csv"), "{missing}/t.csv"),
    ])
    def test_bad_text_or_file_exits_2(self, capsys, tmp_path, argv, what):
        # Empty text is refused, not read as absent; an unopenable file is
        # one error line, not a traceback.
        missing = str(tmp_path / "missing")
        code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
        assert code == cli.EXIT_PARSE == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert what.format(missing=missing) in err
        if "--trace" not in argv:  # uc prints its verdict before the trace
            assert out == ""

    @pytest.mark.parametrize("argv", [
        ("delta", "--fn", "square", "--p", "3", "--eps", "1", "--out", ""),
        ("catalog", "--load", ""),
        ("uc", "--fn", "x", "--domain", "interval:0:1", "--eps-grid", "0.5", "--trace", ""),
    ])
    def test_empty_file_name_exits_2(self, capsys, argv):
        # An empty --out, --load or --trace names no file: it is refused
        # like an unopenable one, not read as absent.
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE == 2
        assert err.startswith("error:") and err.count("\n") == 1
        if "--trace" not in argv:
            assert out == ""

    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ("delta", "--fn", "square", "--p", "3", "--eps", "1"),
        ("delta", "--fn", "x1*x2", "--p", "1,1", "--eps", "0.5"),
        ("scan", "--fn", "square", "--eps", "1", "--p-min", "0", "--p-max", "1",
         "--p-count", "2"),
        ("certify", "--fn", "square", "--p", "3", "--eps", "1"),
    ])
    def test_directions_below_one_exits_2(self, capsys, argv, count):
        # Refused whatever the problem, also where no ray is cast.
        code, out, err = run(capsys, *argv, "--directions", count)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == f"error: --directions must be at least 1, got {count}\n"


class TestFiles:
    """What --out and --trace write, byte for byte."""

    @pytest.mark.parametrize("argv", [
        ("delta", "--fn", "square", "--p", "3", "--eps", "1", "--stats"),
        ("catalog",),
        ("inf", "--fn", "x", "--domain", "interval:0:1", "--eps", "0.5", "--resolution", "64"),
    ])
    def test_out_writes_what_stdout_would_print(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setattr(catalog, "_REGISTRY", {})  # the builtins only
        code, printed, err = run(capsys, *argv)
        assert (code, err) == (cli.EXIT_OK, "") and printed
        path = tmp_path / "o.txt"
        assert run(capsys, *argv, "--out", str(path)) == (cli.EXIT_OK, "", "")
        assert path.read_bytes() == printed.encode("utf-8")

    def test_uc_trace_is_the_inf_csv(self, capsys, tmp_path):
        # uc's infimum trace at one eps is what inf prints for that eps.
        problem = ("--fn", "x", "--domain", "interval:0:1")
        path = tmp_path / "t.csv"
        code, out, _ = run(capsys, "uc", *problem, "--eps-grid", "5", "--trace", str(path))
        assert code == cli.EXIT_INCONCLUSIVE and out.startswith("verdict inconclusive\n")
        code, inf_out, _ = run(capsys, "inf", *problem, "--eps", "5")
        assert code == cli.EXIT_OK
        assert path.read_text(encoding="utf-8") == inf_out
        assert inf_out.splitlines()[0] == "eps,level,window,resolution,inf_delta,argmin,skipped"
        assert len(inf_out.splitlines()) == 5  # the header and 4 stages


def test_uc_without_a_grid_reports_its_grid(capsys):
    # The default grid is a sampled heuristic: it is named on stderr, and
    # stdout's eps_tested line lists the same values.
    code, out, err = run(capsys, "uc", "--fn", "x", "--domain", "interval:0:1")
    assert code == cli.EXIT_OK
    (line,) = err.splitlines()
    assert line.startswith("eps grid from sampled beta=") and "(heuristic): " in line
    grid = line.split("(heuristic): ")[1]
    assert fields(out)["eps_tested"] == grid
