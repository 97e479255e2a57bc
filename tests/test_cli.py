import json
import warnings

import pytest

from superhedge.cli import main
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
        assert main(["price", "--model", model_file, "--payoff", "call",
                     "--strike", "30", "--method", "grid",
                     "--out", str(out)]) == 0
        grid = json.loads(out.read_text())
        assert exhaustive["value"] <= grid["value"] <= 75.0
        assert grid["value"] == pytest.approx(75.0, abs=0.1)

    def test_byte_identical_reports(self, model_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["price", "--model", model_file, "--payoff", "asian_put",
                  "--strike", "60", "--method", "grid", "--eps-range=-10,10",
                  "--grid-points", "25", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

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
