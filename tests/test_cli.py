"""Command-line output and exit codes."""

from __future__ import annotations

import pytest

from deltamax import cli


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
    ("delta", "--fn", "square", "--p", "3", "--eps", "1", "--certify"): """\
value 0.16227766017005546
witness 3.1622776601700555
certified_lower 0.16227750122199019
certified_upper 0.16227766017005546
backend levelset1d
one_sided false
oracle_lower 0.16226467795724148
oracle_upper 0.16227766017005507
oracle_step 1.2982212813604437e-05
sandwich_ok true
""",
    ("certify", "--fn", "square", "--p", "3", "--eps", "1"): """\
value 0.16227766017005546
backend levelset1d
oracle_lower 0.16196071161503542
oracle_upper 0.16227766017005507
oracle_step 0.00031694855501963957
grid_slack 0.00031694855501963957
sandwich_ok true
""",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden(capsys, argv):
    assert run(capsys, *argv) == (cli.EXIT_OK, GOLDEN[argv], "")


class TestFlags:
    """Each subcommand takes exactly the flags it reads."""

    PROBLEM = ["--domain", "--dim", "--tol-x", "--tol-f", "--scan-points", "--r0",
               "--r-max", "--out"]
    RAYS = ["--directions", "--seed"]
    # subcommand -> (required arguments, optional flags)
    FLAGS = {
        "delta": (["--fn", "square", "--p", "1", "--eps", "1"],
                  PROBLEM + RAYS + ["--certify", "--oracle-points", "--stats"]),
        "scan": (["--fn", "square", "--p-min", "0", "--p-max", "1", "--p-count", "2"],
                 PROBLEM + RAYS + ["--eps", "--eps-grid"]),
        "inf": (["--fn", "square", "--eps", "1"], PROBLEM + ["--stages", "--resolution"]),
        "uc": (["--fn", "square"], PROBLEM + ["--eps-grid", "--count", "--trace"]),
        "catalog": ([], ["--out", "--load"]),
        "certify": (["--fn", "square", "--p", "1", "--eps", "1"],
                    PROBLEM + RAYS + ["--h", "--window-radius"]),
    }
    SWITCHES = {"--certify", "--stats"}

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_every_flag_parses(self, command):
        required, flags = self.FLAGS[command]
        for flag in flags:
            value = [] if flag in self.SWITCHES else ["1"]
            args = cli.build_parser().parse_args([command, *required, flag, *value])
            assert getattr(args, flag[2:].replace("-", "_")) not in (None, False), flag

    @pytest.mark.parametrize("argv", [
        ("catalog", "--directions", "3"),
        ("catalog", "--fn", "square"),
        ("uc", "--fn", "square", "--seed", "1"),
        ("inf", "--fn", "square", "--eps", "1", "--directions", "3"),
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
