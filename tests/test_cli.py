import copy
import io
import json
import math
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import superhedge
from superhedge import cli
from superhedge.cli import _PAYOFFS, main
from superhedge.reports import dumps, format_float

TWO_STEP = {
    "s0": 100.0,
    "steps": [
        {"a": 0.5, "vol": {"kind": "constant", "sigma": 2.5},
         "shocks": [{"eps": -0.7, "prob": 0.5}, {"eps": 0.7, "prob": 0.5}]},
        {"a": 0.5, "vol": {"kind": "constant", "sigma": 2.5},
         "shocks": [{"eps": -0.7, "prob": 0.5}, {"eps": 0.7, "prob": 0.5}]},
    ],
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "two_step.json"
    path.write_text(json.dumps(TWO_STEP))
    return str(path)


def fails_with_one_line(capsys, argv, message):
    """``main(argv)`` exits 1 with one stderr line holding ``message`` and
    no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and err.startswith("error: ")


class TestPrice:
    def test_closed_call(self, model_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["price", "--model", model_file, "--payoff", "call",
                     "--strike", "30", "--method", "closed",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["value"] == 75.0
        assert report["interval"] == {"lower": 70.0, "upper": 75.0}
        assert report["argmax_selection"] is None
        assert "75" in capsys.readouterr().out

    def test_exhaustive_and_grid(self, model_file, tmp_path):
        out = tmp_path / "r.json"
        assert main(["price", "--model", model_file, "--payoff", "call",
                     "--strike", "30", "--method", "exhaustive",
                     "--out", str(out)]) == 0
        exhaustive = json.loads(out.read_text())
        assert exhaustive["argmax_selection"] == [[0, 1], [0, 1]]
        assert exhaustive["stats"] == {"selections": 1, "trees": 1}
        assert main(["price", "--model", model_file, "--payoff", "call",
                     "--strike", "30", "--method", "grid",
                     "--out", str(out)]) == 0
        grid = json.loads(out.read_text())
        assert exhaustive["value"] <= grid["value"] <= 75.0
        assert grid["value"] == pytest.approx(75.0, abs=0.1)

    def test_byte_identical_reports(self, model_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for method in (["grid", "--eps-range=-10,10", "--grid-points", "25"],
                       ["exhaustive"]):
            for path in (a, b):
                main(["price", "--model", model_file, "--payoff", "asian_put",
                      "--strike", "60", "--method", *method,
                      "--out", str(path)])
            assert a.read_bytes() == b.read_bytes()

    def test_exhaustive_stats(self, tmp_path):
        # 4,096 selections of 64 leaves: more than one block, so the scan
        # prunes and values few trees, the same ones on every run
        step = {"a": 0.4, "vol": {"kind": "garch11", "omega0": 0.04,
                                  "alpha1": 0.2, "beta1": 0.3,
                                  "floor": 0.05},
                "shocks": [{"eps": e, "prob": 0.25}
                           for e in (-0.9, -0.3, 0.4, 1.1)]}
        path = tmp_path / "six.json"
        path.write_text(json.dumps({"s0": 100.0, "steps": [step] * 6}))
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["price", "--model", str(path), "--payoff", "call",
                         "--strike", "100", "--method", "exhaustive",
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        stats = json.loads(reports[0])["stats"]
        assert stats["selections"] == 4096
        assert 1 <= stats["trees"] < 100

    def test_grid_stats(self, model_file, tmp_path):
        # 144 pairs per step of the 25-point grid, 20,736 combinations: the
        # bound keeps one first-step pair, so a few hundred trees at most
        out = tmp_path / "grid.json"
        assert main(["price", "--model", model_file, "--payoff", "put",
                     "--strike", "110", "--method", "grid",
                     "--grid-points", "25", "--out", str(out)]) == 0
        stats = json.loads(out.read_text())["stats"]
        assert stats["combinations"] == 144 ** 2
        assert 1 <= stats["trees"] <= 200

    def test_grid_cap_exit_code(self, model_file, capsys):
        # 2,830 points: 1,415 x 1,415 = 2,002,225 pairs per step, just
        # above the cap; refused before the grid is built, as is a grid
        # that could not be built at all
        for points in ("2830", str(10 ** 12)):
            assert main(["price", "--model", model_file, "--payoff", "put",
                         "--strike", "110", "--method", "grid",
                         "--grid-points", points]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "grid pairs per step exceed cap" in err

    def test_cap_exit_code(self, tmp_path):
        big = dict(TWO_STEP)
        big["steps"] = TWO_STEP["steps"] * 12  # 2^24 tree branches
        path = tmp_path / "big.json"
        path.write_text(json.dumps(big))
        assert main(["price", "--model", str(path), "--payoff", "call",
                     "--strike", "30", "--method", "exhaustive"]) == 2

    def test_invalid_model_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = json.loads(json.dumps(TWO_STEP))
        doc["steps"][0]["a"] = 1.5
        path.write_text(json.dumps(doc))
        assert main(["price", "--model", str(path), "--payoff", "call",
                     "--strike", "30", "--method", "closed"]) == 1
        assert "a out of (0,1]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"s0": NaN, "steps": []}', "non-finite number NaN"),
        ('{"s0": 100.0, "steps": [{"a": 0.5, "vol": {"kind": "constant", '
         '"sigma": Infinity}, "shocks": []}]}', "non-finite number Infinity"),
        ('{"s0": 1e999, "steps": [{"a": 0.5, "vol": {"kind": "constant", '
         '"sigma": 1.0}, "shocks": [{"eps": -0.7, "prob": 0.5}, '
         '{"eps": 0.7, "prob": 0.5}]}]}', "s0 not finite"),
        ('{"s0": 100.0, "steps": [{"a": 0.5, "vol": {"kind": "constant", '
         '"sigma": 1e400}, "shocks": [{"eps": -0.7, "prob": 0.5}, '
         '{"eps": 0.7, "prob": 0.5}]}]}', "sigma not finite"),
        ('{"s0": 100.0, "steps": [{"a": 0.5, "vol": {"kind": "constant", '
         '"sigma": 1.0}, "shocks": [{"prob": 0.5}, '
         '{"eps": 0.7, "prob": 0.5}]}]}', "missing 'eps'"),
        ('{"s0": 100.0, "steps": [{"a": 0.5, "vol": {"kind": "constant", '
         '"sigma": 1.0}, "shocks": [{"eps": "x", "prob": 0.5}, '
         '{"eps": 0.7, "prob": 0.5}]}]}', "'eps' in a shock at step 1"),
        ('{"s0": 100.0, "steps": [{"a": 0.5, "vol": {"kind": "constant", '
         '"sigma": 1.0}, "shocks": [{"eps": -0.7}, '
         '{"eps": 0.7, "prob": 0.5}]}]}', "missing 'prob'"),
        ('{"s0": 100.0, "steps": [{"a": [0.5], "vol": {"kind": "constant", '
         '"sigma": 1.0}, "shocks": [{"eps": -0.7, "prob": 0.5}, '
         '{"eps": 0.7, "prob": 0.5}]}]}', "'a' at step 1 is not a number"),
        ('[1, 2]', "model must be a JSON object"),
        ('{"s0": 100.0, "steps": [{"a": 0.5, "vol": {"kind": [], '
         '"sigma": 1.0}, "shocks": []}]}', "unknown volatility kind []"),
    ])
    def test_malformed_model_exits_one(self, tmp_path, capsys, text,
                                       message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for argv in (["price", "--model", str(path), "--payoff", "call",
                      "--strike", "30", "--method", "grid"],
                     ["verify", "--model", str(path)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert message in err
            assert err.count("\n") == 1 and err.startswith("error: ")

    def test_unreadable_and_unwritable_files_exit_one(self, model_file,
                                                      tmp_path, capsys):
        for argv in (
                ["price", "--model", str(tmp_path), "--payoff", "call",
                 "--strike", "30", "--method", "closed"],
                ["price", "--model", model_file, "--payoff", "call",
                 "--strike", "30", "--method", "closed",
                 "--out", str(tmp_path / "missing" / "r.json")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv, message", [
        (["--eps-range=-inf,inf"], "eps_range bounds must be finite"),
        (["--eps-range=-1,nan"], "eps_range bounds must be finite"),
        (["--strike", "inf"], "strike must be positive and finite"),
        (["--strike", "nan"], "strike must be positive and finite"),
    ], ids=["eps-inf", "eps-nan", "strike-inf", "strike-nan"])
    def test_non_finite_arguments_exit_one(self, model_file, capsys, argv,
                                           message):
        base = ["price", "--model", model_file, "--payoff", "call",
                "--strike", "30", "--method", "grid"]
        fails_with_one_line(capsys, base + argv, message)

    def test_non_utf8_files_exit_one(self, model_file, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes('{"s0": 100.0} \u00e9'.encode("latin-1"))
        for argv in (["price", "--model", str(bad), "--payoff", "call",
                      "--strike", "30", "--method", "closed"],
                     ["decompose", "--model", model_file, "--surface",
                      str(bad)],
                     ["estimate", "--prices", str(bad), "--statistic",
                      "constant_one"]):
            fails_with_one_line(capsys, argv, "not valid UTF-8")

    def test_unknown_flag_exits_one(self, model_file):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--model", model_file, "--payoff", "call",
                  "--strike", "30", "--method", "closed", "--bogus"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("method", ["exhaustive", "grid"])
    def test_degenerate_shocks_exit_one(self, tmp_path, capsys, method):
        # sigma = 1e-300: e^{sigma*eps} rounds to 1 on both branches, so
        # the branch weights divide by zero
        doc = json.loads(json.dumps(TWO_STEP))
        for step in doc["steps"]:
            step["vol"]["sigma"] = 1e-300
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        fails_with_one_line(capsys, ["price", "--model", str(path),
                                     "--payoff", "call", "--strike", "90",
                                     "--method", method],
                            "weights divide by zero")


class TestInterval:
    def test_point_interval(self, model_file, tmp_path):
        out = tmp_path / "iv.json"
        assert main(["interval", "--model", model_file, "--payoff", "call",
                     "--strike", "20", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["interval"]["lower"] == 80.0
        assert report["interval"]["upper"] == 80.0


class TestEstimate:
    def test_constant_one_flow(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text("t,price\n0,100\n1,80\n2,120\n3,90\n")
        out = tmp_path / "model.json"
        report = tmp_path / "report.json"
        code = main(["estimate", "--prices", str(prices), "--statistic",
                     "constant_one", "--tau0", "1.0", "--out", str(out),
                     "--report", str(report)])
        assert code == 0
        assert "0.2" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["pricing_only"] is True
        assert doc["steps"][0]["a"] == pytest.approx(0.2, abs=1e-12)
        rep = json.loads(report.read_text())
        assert rep["a"] == pytest.approx([0.2, 0.0, 0.0], abs=1e-12)
        # the emitted model prices via the closed-form method
        assert main(["price", "--model", str(out), "--payoff", "call",
                     "--strike", "100", "--method", "closed"]) == 0

    def test_identity_tail_needs_k(self, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text("t,price\n0,100\n1,80\n2,120\n3,90\n")
        assert main(["estimate", "--prices", str(prices), "--statistic",
                     "identity_tail"]) == 1
        assert main(["estimate", "--prices", str(prices), "--statistic",
                     "identity_tail", "--tail-k", "1"]) == 0

    def test_non_numeric_price(self, tmp_path, capsys):
        # read like a number of a model file: one line, exit 1
        prices = tmp_path / "prices.csv"
        prices.write_text("t,price\n0,100\n1,eighty\n2,120\n")
        assert main(["estimate", "--prices", str(prices), "--statistic",
                     "constant_one"]) == 1
        assert capsys.readouterr().err == (
            f"error: 'price' in {prices} row 3 is not a number: 'eighty'\n")


class TestVerify:
    def test_two_step_passes(self, model_file, tmp_path, capsys):
        out = tmp_path / "verify.json"
        dump = tmp_path / "density.json"
        code = main(["verify", "--model", model_file, "--alphas", "42",
                     "--out", str(out), "--dump-density", str(dump)])
        assert code == 0
        density = json.loads(dump.read_text())
        assert {"step", "history", "atom", "psi"} == set(density[0])
        assert len(density) == 2 + 2 * 2
        assert "PASS" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["max_normalization_residual"] <= 1e-10
        assert report["max_drift_residual"] <= 1e-10
        assert report["equivalent"] is True

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tol_must_be_positive_and_finite(self, model_file, tmp_path,
                                             capsys, tol):
        dump = tmp_path / "density.json"
        fails_with_one_line(capsys, ["verify", "--model", model_file,
                                     "--tol", tol, "--dump-density",
                                     str(dump)],
                            "tol must be positive and finite")
        assert not dump.exists()

    def test_overflowing_exponential_exits_one(self, tmp_path, capsys):
        # sigma * eps = 800: e^{800} overflows, so psi would be NaN
        doc = json.loads(json.dumps(TWO_STEP))
        for step in doc["steps"]:
            step["vol"]["sigma"] = 40.0
            step["shocks"][1]["eps"] = 20.0
        path = tmp_path / "saturating.json"
        path.write_text(json.dumps(doc))
        fails_with_one_line(capsys, ["verify", "--model", str(path)],
                            "overflows at step 1")


class TestDecompose:
    def test_min_surface(self, model_file, tmp_path, capsys):
        import itertools
        nodes = []
        # min(S, 90) on the two-step tree, every prefix present
        from superhedge import load_model, price_path, PathIndex
        model = load_model(model_file)
        values = {(): 90.0}
        for idx, path in [(i, price_path(model, PathIndex(i)))
                          for i in itertools.product((0, 1), repeat=2)]:
            values[idx[:1]] = min(path.price_seq[1], 90.0)
            values[idx] = min(path.price_seq[2], 90.0)
        for hist, value in values.items():
            nodes.append({"history": list(hist), "value": value})
        surface = tmp_path / "surface.json"
        surface.write_text(json.dumps({"floor": 1e-6, "nodes": nodes}))
        out = tmp_path / "dec.json"
        code = main(["decompose", "--model", model_file, "--surface",
                     str(surface), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        root = [n for n in report["nodes"] if n["history"] == []][0]
        assert root["M"] == 90.0
        assert all(a["g"] >= -1e-12 for n in report["nodes"]
                   for a in n.get("atoms", []))

    def test_overflowing_exponential_exits_one(self, tmp_path, capsys):
        # one step with sigma * eps = 800: e^{800} overflows, and the
        # consumption after the up move would be inf
        doc = json.loads(json.dumps(TWO_STEP))
        doc["steps"] = doc["steps"][:1]
        doc["steps"][0]["vol"]["sigma"] = 40.0
        doc["steps"][0]["shocks"][1]["eps"] = 20.0
        model = tmp_path / "saturating.json"
        model.write_text(json.dumps(doc))
        surface = tmp_path / "surface.json"
        surface.write_text(json.dumps({"floor": 1.0, "nodes": [
            {"history": h, "value": v}
            for h, v in (([], 5.0), ([0], 2.0), ([1], 5.0))]}))
        fails_with_one_line(capsys, ["decompose", "--model", str(model),
                                     "--surface", str(surface)],
                            "overflows at step 1")

    def test_missing_prefix_rejected(self, model_file, tmp_path):
        surface = tmp_path / "surface.json"
        surface.write_text(json.dumps(
            {"floor": 1.0, "nodes": [{"history": [], "value": 5.0}]}))
        assert main(["decompose", "--model", model_file, "--surface",
                     str(surface)]) == 1

    # every prefix of the two-step model, valued 5.0, with one field
    # replaced by a malformed value where the case asks for it
    GOOD_NODES = ('{"history": [], "value": 5.0}, '
                  '{"history": [0], "value": 5.0}, '
                  '{"history": [1], "value": 5.0}, '
                  '{"history": [0, 0], "value": 5.0}, '
                  '{"history": [0, 1], "value": 5.0}, '
                  '{"history": [1, 0], "value": 5.0}, '
                  '{"history": [1, 1], "value": 5.0}')

    @pytest.mark.parametrize("text, message", [
        ('{"floor": "x", "nodes": [%s]}' % GOOD_NODES,
         "'floor' in the surface is not a number"),
        ('{"floor": 1.0, "nodes": [{"history": []}, %s]}'
         % GOOD_NODES.split(", ", 2)[2], "missing 'value'"),
        ('{"floor": 1.0, "nodes": [{"history": ["a"], "value": 5.0}]}',
         "not a list of atom indices"),
        ('{"floor": 1.0, "nodes": 5}', "'nodes' must be a JSON array"),
        ('{"floor": 1.0, "nodes": [{"history": [], "value": Infinity}]}',
         "non-finite number Infinity"),
        ('{"floor": 1.0, "nodes": [{"history": [], "value": NaN}]}',
         "non-finite number NaN"),
        ('{"floor": 1.0, "nodes": [{"history": [], "value": 1e999}]}',
         "surface value for history [] is not finite"),
        ('{"floor": 1e999, "nodes": [%s]}' % GOOD_NODES,
         "surface floor inf is not finite"),
        ('{"floor": 1.0, "nodes": [[]]}', "surface node must be a JSON object"),
        ('{"floor": 1.0, "nodes": [{"history": 0, "value": 5.0}]}',
         "surface node history must be a JSON array"),
        ('{"floor": 1.0, "nodes": [{"history": [2], "value": 5.0}]}',
         "has invalid atom index"),
        ('[1, 2]', "surface must be a JSON object"),
    ], ids=["floor-not-number", "value-missing", "history-not-indices",
            "nodes-not-array", "value-infinity", "value-nan",
            "value-overflow", "floor-overflow", "node-not-object",
            "history-not-array", "atom-out-of-range", "not-object"])
    def test_malformed_surface_exits_one(self, model_file, tmp_path, capsys,
                                         text, message):
        surface = tmp_path / "surface.json"
        surface.write_text(text)
        assert main(["decompose", "--model", model_file, "--surface",
                     str(surface)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestOracleCommand:
    def test_expectation_and_sup(self, model_file, capsys):
        assert main(["oracle", "expectation", "--model", model_file,
                     "--alphas", "7", "--payoff", "call",
                     "--strike", "90"]) == 0
        assert main(["oracle", "sup", "--model", model_file, "--payoff",
                     "asian_put", "--strike", "110"]) == 0
        assert "bit-identical" in capsys.readouterr().out


class TestReportRendering:
    def test_seventeen_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"
        assert format_float(75.0) == "75.0"
        text = dumps({"x": [1.5, 2], "y": None, "z": True})
        parsed = json.loads(text)
        assert parsed == {"x": [1.5, 2], "y": None, "z": True}


class TestParserReuse:
    """``main`` shares one parser across calls, and no call sees another's
    options."""

    GRID = ["price", "--payoff", "call", "--strike", "60", "--method", "grid"]

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_parser_built_once(self, model_file, monkeypatch):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        for strike in ("30", "60", "90"):
            assert main(["interval", "--model", model_file, "--payoff",
                         "call", "--strike", strike]) == 0
            assert main(["price", "--model", model_file, "--payoff", "put",
                         "--strike", strike, "--method", "closed"]) == 0
        assert built.count("superhedge") == 1

    def test_no_option_carries_across_calls(self, model_file, tmp_path):
        a, b, fresh = (tmp_path / name for name in ("a", "b", "fresh"))
        assert main(self.GRID + ["--model", model_file, "--eps-range=-3,3",
                                 "--grid-points", "25", "--out", str(a)]) == 0
        assert main(self.GRID + ["--model", model_file, "--out", str(b)]) == 0
        src = str(Path(superhedge.__file__).parents[1])
        subprocess.run([sys.executable, "-m", "superhedge.cli", *self.GRID,
                        "--model", model_file, "--out", str(fresh)],
                       check=True, capture_output=True, cwd=src)
        assert b.read_bytes() == fresh.read_bytes()
        assert a.read_bytes() != b.read_bytes()

    def test_usage_error_leaves_no_state(self, model_file, tmp_path):
        before, after = tmp_path / "before", tmp_path / "after"
        argv = self.GRID + ["--model", model_file, "--grid-points", "25"]
        assert main(argv + ["--out", str(before)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--eps-range=-3,3", "--bogus"])
        assert exc.value.code == 1
        assert main(argv + ["--out", str(after)]) == 0
        assert before.read_bytes() == after.read_bytes()

    def test_help_matches_a_fresh_parser(self, model_file, capsys):
        assert main(["interval", "--model", model_file, "--payoff", "call",
                     "--strike", "30"]) == 0
        capsys.readouterr()
        for argv in (["--help"], ["price", "--help"]):
            helps = []
            for parse in (main, cli.build_parser.__wrapped__().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                assert exc.value.code == 0
                helps.append(capsys.readouterr().out)
            assert helps[0] == helps[1] and "usage: superhedge" in helps[0]


# -- fuzz: mutated input files through cli.main ------------------------------

# raw JSON text a mutation may put in place of any value
FRAGMENTS = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                     "null", "true", "[]", "{}", '"x"']),
    st.floats().map(json.dumps),
    st.floats(-2.0, 2.0).map(json.dumps),
    st.integers(-320, 308).map(lambda e: f"1e{e}"))
CELLS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-5", "", "x"]),
    st.floats().map(repr), st.floats(0.0, 1e4).map(repr),
    st.integers(-320, 308).map(lambda e: f"1e{e}"),
    st.integers(-3, 5).map(str))
STRIKES = st.sampled_from(["30", "60", "100", "1e-300", "1e300"])


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_json(draw, doc):
    """``doc`` as JSON text after one to three edits: a value replaced by a
    raw fragment or a number scaled by a power of ten, a key or element
    deleted, an unknown key added or a list element repeated; sometimes
    truncated."""
    doc = copy.deepcopy(doc)
    holes = {}
    for i in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["scale", "scale", "replace", "delete",
                                   "grow"]))
        paths = list(_paths(doc))
        numbers = [p for p in paths if isinstance(_at(doc, p), float)]
        path = draw(st.sampled_from(numbers if op == "scale" and numbers
                                    else paths))
        parent, node = _at(doc, path[:-1]), _at(doc, path)
        if op == "grow" and isinstance(node, dict):
            node["extra"] = 1
        elif op == "grow" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[-1]))
        elif op == "delete" and path:
            del parent[path[-1]]
        else:
            if op == "scale" and isinstance(node, float):
                fragment = json.dumps(
                    node * 10.0 ** draw(st.integers(-300, 300)))
            else:
                fragment = draw(FRAGMENTS)
            hole = f"\u0000hole{i}"
            holes[json.dumps(hole)] = fragment
            if path:
                parent[path[-1]] = hole
            else:
                doc = hole
    text = json.dumps(doc)
    for hole, fragment in holes.items():
        text = text.replace(hole, fragment)
    if draw(st.integers(0, 19)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@st.composite
def mutated_csv(draw):
    """A four-row price CSV after one to three edits: a price replaced, a
    row deleted or repeated, or a cell added."""
    rows = [["t", "price"], ["0", "100"], ["1", "80"], ["2", "120"],
            ["3", "90"]]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        op = draw(st.sampled_from(["price", "price", "delete", "repeat",
                                   "widen"]))
        r = draw(st.integers(0, len(rows) - 1))
        if op == "price" and len(rows) > 1:
            rows[draw(st.integers(1, len(rows) - 1))][-1] = draw(CELLS)
        elif op == "delete":
            del rows[r]
        elif op == "repeat":
            rows.insert(r, list(rows[r]))
        elif op == "widen":
            rows[r].append(draw(CELLS))
    return "".join(",".join(row) + "\n" for row in rows)


def _finite_floats(obj):
    if isinstance(obj, float):
        yield math.isfinite(obj)
    elif isinstance(obj, (dict, list)):
        for v in obj.values() if isinstance(obj, dict) else obj:
            yield from _finite_floats(v)


def _reject_constant(token):
    raise AssertionError(f"report holds {token}")


def check_cli_contract(argv, reports):
    """``main(argv)`` exits 0, 1 or 2. A non-zero exit writes exactly one
    stderr line, starting ``error: ``; exit 0 writes every report path in
    ``reports``, and every float in them is finite."""
    for path in reports:
        path.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        err = err.getvalue()
        assert err.count("\n") == 1 and err.startswith("error: "), err
        return
    for path in reports:
        doc = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert all(_finite_floats(doc))


FUZZ = settings(derandomize=True, deadline=None, max_examples=200,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    @FUZZ
    @given(text=mutated_json(TWO_STEP), payoff=st.sampled_from(_PAYOFFS),
           strike=STRIKES,
           command=st.sampled_from(["interval", "verify", "closed",
                                    "exhaustive"]))
    def test_model_files(self, tmp_path, text, payoff, strike, command):
        model, out = tmp_path / "model.json", tmp_path / "out.json"
        model.write_text(text)
        if command == "verify":
            argv = ["verify", "--model", str(model)]
        else:
            argv = ["interval" if command == "interval" else "price",
                    "--model", str(model), "--payoff", payoff,
                    "--strike", strike]
            if command != "interval":
                argv += ["--method", command]
        check_cli_contract(argv + ["--out", str(out)], [out])

    @FUZZ
    @given(text=mutated_json({"floor": 1.0, "nodes": [
        {"history": list(h), "value": 5.0}
        for h in ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))]}))
    def test_surface_files(self, tmp_path, model_file, text):
        surface, out = tmp_path / "surface.json", tmp_path / "out.json"
        surface.write_text(text)
        check_cli_contract(["decompose", "--model", model_file, "--surface",
                            str(surface), "--out", str(out)], [out])

    @FUZZ
    @given(text=mutated_csv(),
           statistic=st.sampled_from(["constant_one", "capped_ratio",
                                      "identity_tail"]),
           tail_k=st.sampled_from([[], ["--tail-k", "0"], ["--tail-k", "1"],
                                   ["--tail-k", "3"], ["--tail-k", "-1"]]),
           tau0=st.one_of(st.sampled_from(["0", "-1", "nan", "inf"]),
                          st.floats(1e-3, 1.0).map(repr)))
    def test_price_csvs(self, tmp_path, text, statistic, tail_k, tau0):
        prices = tmp_path / "prices.csv"
        out, report = tmp_path / "model.json", tmp_path / "report.json"
        prices.write_text(text)
        check_cli_contract(["estimate", "--prices", str(prices),
                            "--statistic", statistic, "--tau0", tau0,
                            *tail_k, "--out", str(out), "--report",
                            str(report)], [out, report])

    def test_verify_large_s0(self, tmp_path):
        # the deviation, one rounding of s0, is held to tol * s0 and
        # reported as it is
        doc = dict(TWO_STEP, s0=1e56)
        model, out = tmp_path / "model.json", tmp_path / "out.json"
        model.write_text(json.dumps(doc))
        check_cli_contract(["verify", "--model", str(model), "--out",
                            str(out)], [out])
        report = json.loads(out.read_text())
        assert report["passed"]
        assert 1e39 < report["integral_representation_deviation"] < 1e-9 * 1e56

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="saturating sigma: the grid sup is inf and "
                              "the report writer raises")
    def test_grid_saturating_sigma(self, tmp_path):
        doc = json.loads(json.dumps(TWO_STEP))
        for step in doc["steps"]:
            step["vol"]["sigma"] = 40.0
        model, out = tmp_path / "model.json", tmp_path / "out.json"
        model.write_text(json.dumps(doc))
        check_cli_contract(["price", "--model", str(model), "--payoff",
                            "call", "--strike", "50", "--method", "grid",
                            "--grid-points", "25", "--out", str(out)], [out])
