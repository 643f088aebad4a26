"""Front-end checks: schema rejection, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from mfbdsvie.cli import run

TOL = 1e-12


def write_scenario(tmp_path: Path, doc: dict, name="scenario.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return p


def base_doc():
    return {
        "lattice": {"n_steps": 2, "horizon": 1.0},
        "driver": {"family": "linear", "params": {}},
        "terminal": {"family": "deterministic", "params": {"phi": 1.0}},
        "solver": {"tol": 1e-12},
    }


class TestSolve:
    def test_trivial_scenario_passes(self, tmp_path):
        path = write_scenario(tmp_path, base_doc())
        out = tmp_path / "out"
        assert run("solve", str(path), str(out)) == 0
        table = (out / "solution_y.csv").read_text().splitlines()
        assert table[0] == "t_idx,mean,min,max"
        for line in table[1:]:
            idx, mean, lo, hi = line.split(",")
            assert float(mean) == pytest.approx(1.0, abs=TOL)
        assert "verdict: PASS" in (out / "summary.txt").read_text()

    def test_norms_subcommand_emits_equivalence(self, tmp_path):
        doc = base_doc()
        doc["driver"] = {
            "family": "linear",
            "params": {"f": {"y": -0.3, "z": 0.1}, "g": {"z": 0.05}},
        }
        doc["terminal"] = {"family": "affine",
                           "params": {"phi": 0.2, "theta": 1.0}}
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert run("norms", str(path), str(out)) == 0
        content = (out / "norms.csv").read_text()
        assert content.splitlines()[0] == "m_beta_sq,l_beta_sq,lower_ok,upper_ok"

    def test_unknown_key_rejected(self, tmp_path):
        doc = base_doc()
        doc["extra"] = 1
        path = write_scenario(tmp_path, doc)
        assert run("solve", str(path), str(tmp_path / "out")) == 1

    def test_nested_unknown_key_rejected(self, tmp_path):
        doc = base_doc()
        doc["driver"]["params"] = {"f": {"speed": 1.0}}
        path = write_scenario(tmp_path, doc)
        assert run("solve", str(path), str(tmp_path / "out")) == 1

    def test_missing_file(self, tmp_path):
        assert run("solve", str(tmp_path / "nope.json"),
                   str(tmp_path / "out")) == 1

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run("solve", str(p), str(tmp_path / "out")) == 1

    def test_zero_max_iter_is_input_error(self, tmp_path, capsys):
        doc = base_doc()
        doc["solver"]["max_iter"] = 0
        path = write_scenario(tmp_path, doc)
        assert run("solve", str(path), str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith("input error:")


class TestCompare:
    def compare_doc(self, a_y=0.2):
        return {
            "lattice": {"n_steps": 2, "horizon": 1.0},
            "solver": {"tol": 1e-12},
            "comparison": {
                "f1": {"family": "linear",
                       "params": {"f": {"y": a_y}, "f_source": -0.1}},
                "fbar": {"family": "linear", "params": {"f": {"y": a_y}}},
                "f2": {"family": "linear",
                       "params": {"f": {"y": a_y}, "f_source": 0.1}},
                "zeta1": {"family": "deterministic", "params": {"phi": 0.0}},
                "zeta2": {"family": "deterministic", "params": {"phi": 0.5}},
                "p_max": 2,
            },
        }

    def test_pass(self, tmp_path):
        path = write_scenario(tmp_path, self.compare_doc())
        out = tmp_path / "out"
        assert run("compare", str(path), str(out)) == 0
        assert (out / "compare.csv").exists()
        assert (out / "chain.csv").exists()

    def test_hypothesis_violation_is_input_error(self, tmp_path):
        path = write_scenario(tmp_path, self.compare_doc(a_y=-0.2))
        assert run("compare", str(path), str(tmp_path / "out")) == 1


class TestRisk:
    def risk_doc(self):
        return {
            "lattice": {"n_steps": 2, "horizon": 1.0},
            "solver": {"tol": 1e-12},
            "risk": {
                "rate": 0.1,
                "payoff": {"family": "deterministic", "params": {"phi": 1.0}},
                "axioms": ["translation"],
                "shift": 1.0,
            },
        }

    def test_translation_reference_row(self, tmp_path):
        path = write_scenario(tmp_path, self.risk_doc())
        out = tmp_path / "out"
        assert run("risk", str(path), str(out)) == 0
        rows = (out / "translation.csv").read_text().splitlines()
        t0 = rows[1].split(",")
        assert float(t0[1]) == pytest.approx(-0.9070294784580498, abs=1e-9)

    def test_axiom_csv_columns(self, tmp_path):
        path = write_scenario(tmp_path, self.risk_doc())
        out = tmp_path / "out"
        run("risk", str(path), str(out))
        header = (out / "risk_axioms.csv").read_text().splitlines()[0]
        assert header == "axiom,worst_violation,pass"


class TestMalliavinAndParticles:
    def test_malliavin_residual_table(self, tmp_path):
        doc = base_doc()
        doc["terminal"] = {"family": "affine", "params": {"theta": 1.0}}
        doc["malliavin"] = {"r_idx": 0}
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert run("malliavin", str(path), str(out)) == 0
        header = (out / "clark_ocone.csv").read_text().splitlines()[0]
        assert header == "t_idx,r_idx,residual"

    def test_particles_table(self, tmp_path):
        doc = base_doc()
        doc["driver"] = {"family": "linear",
                         "params": {"f": {"mean_y": 0.4}}}
        doc["terminal"] = {"family": "affine", "params": {"theta": 0.5}}
        doc["particles"] = {"n_list": [1, 2]}
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert run("particles", str(path), str(out)) == 0
        header = (out / "particles.csv").read_text().splitlines()[0]
        assert header == "n,t_idx,e_n"


class TestSolverSection:
    @pytest.mark.parametrize("sub, doc", [
        ("solve", base_doc()),
        ("compare", TestCompare().compare_doc()),
        ("risk", TestRisk().risk_doc()),
    ])
    def test_non_numeric_beta_is_input_error(self, tmp_path, capsys, sub, doc):
        doc["solver"]["beta"] = "x"
        path = write_scenario(tmp_path, doc)
        assert run(sub, str(path), str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith("input error:")


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestMalformedNumbers:
    """Each malformed number fails at parse time, before any output."""

    @pytest.mark.parametrize("path, value", [
        (("solver", "tol"), float("inf")),
        (("lattice", "n_steps"), 2.7),
        (("lattice", "n_steps"), "3"),
        (("driver", "params", "f"), {"y": "a"}),
        (("driver", "params", "f_source"), {"affine_ts": [1]}),
        (("terminal",), {"family": "smooth", "params": {
            "smooth": [{"kind": "tanh", "coef": {"affine": [1]}}]}}),
        (("terminal", "params", "phi"), float("nan")),
    ], ids=["inf_tol", "fractional_n_steps", "string_n_steps",
            "string_coefficient", "short_affine_ts", "short_affine_coef",
            "nan_phi"])
    def test_rejected_at_parse(self, tmp_path, capsys, monkeypatch, path,
                               value):
        def never(*args, **kwargs):
            raise AssertionError("the solver ran on malformed input")

        monkeypatch.setattr("mfbdsvie.cli.picard_solve", never)
        path = write_scenario(tmp_path, _set(base_doc(), path, value))
        out = tmp_path / "out"
        assert run("solve", str(path), str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "Traceback" not in err
        assert not (out / "summary.txt").exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        doc = base_doc()
        doc["driver"] = {
            "family": "risk",
            "params": {"rate": {"affine": [0.1, 0.05]},
                       "h": {"kind": "smooth_abs", "k1": 0.3},
                       "g": {"kind": "linear", "k1": 0.05}},
        }
        doc["terminal"] = {
            "family": "smooth",
            "params": {"theta": 0.4,
                       "smooth": [{"kind": "soft_abs", "coef": 0.6}]},
        }
        path = write_scenario(tmp_path, doc)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run("solve", str(path), str(out1)) == 0
        assert run("solve", str(path), str(out2)) == 0
        for name in ("solver_trace.csv", "solution_y.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_empty_trace_has_header_only_rows(self, tmp_path):
        # a one-iteration run still yields a header plus one row
        path = write_scenario(tmp_path, base_doc())
        out = tmp_path / "out"
        run("solve", str(path), str(out))
        lines = (out / "solver_trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,diff_norm,ratio"
        assert len(lines) >= 2


class TestEmission:
    def test_empty_rows_give_header_only_csv(self, tmp_path):
        from mfbdsvie.cli import write_csv

        path = tmp_path / "empty.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_unwritable_target_raises_io_error(self, tmp_path):
        from mfbdsvie import errors
        from mfbdsvie.cli import write_csv

        with pytest.raises(errors.IoError):
            write_csv(tmp_path, ["a"], [])  # target is a directory


def _never(*args, **kwargs):
    raise AssertionError("computation ran on malformed input")


def _assert_input_error(tmp_path, capsys, sub, doc):
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert run(sub, str(path), str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert not (out / "summary.txt").exists()


class TestIndexRanges:
    """Out-of-range indices fail at parse time, before any computation."""

    @pytest.mark.parametrize("sub, cfg, computes", [
        ("malliavin", {"r_idx": 5}, "picard_solve"),
        ("malliavin", {"r_idx": -1}, "picard_solve"),
        ("risk", {"t_idx": 9}, "risk_mod.rho"),
        ("particles", {"n_list": []}, "convergence_study"),
        ("particles", {"n_list": [1, 0]}, "convergence_study"),
    ], ids=["r_idx_past_last_slot", "negative_r_idx", "t_idx_past_horizon",
            "empty_n_list", "zero_particles"])
    def test_rejected_before_computing(self, tmp_path, capsys, monkeypatch,
                                       sub, cfg, computes):
        monkeypatch.setattr(f"mfbdsvie.cli.{computes}", _never)
        doc = TestRisk().risk_doc() if sub == "risk" else base_doc()
        if sub == "risk":
            # past independence is the axiom that reads t_idx
            cfg = dict(doc["risk"], axioms=["past_independence"],
                       payoff2={"family": "deterministic",
                                "params": {"phi": 2.0}}, **cfg)
        doc[sub] = cfg
        _assert_input_error(tmp_path, capsys, sub, doc)


class TestMalformedSections:
    """A wrongly typed section value fails at parse time, no traceback."""

    def test_smooth_must_be_a_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mfbdsvie.cli.picard_solve", _never)
        doc = _set(base_doc(), ("terminal",),
                   {"family": "smooth", "params": {"smooth": 3}})
        _assert_input_error(tmp_path, capsys, "solve", doc)

    @pytest.mark.parametrize("axioms", [3, ["translation", "unknown"],
                                        ["monotonicity"]],
                             ids=["not_a_list", "unknown_name",
                                  "missing_payoff2"])
    def test_axioms_checked_before_computing(self, tmp_path, capsys,
                                             monkeypatch, axioms):
        monkeypatch.setattr("mfbdsvie.cli.risk_mod.rho", _never)
        doc = TestRisk().risk_doc()
        doc["risk"]["axioms"] = axioms
        _assert_input_error(tmp_path, capsys, "risk", doc)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestBoundaryTracebacks:
    """Valid-looking documents that used to end in a Python traceback."""

    @pytest.mark.parametrize("edits", [
        # beta_default is about 716 here, so e^(beta T) overflows
        [(("lattice", "n_steps"), 3), (("driver", "params", "f", "mean_z"), 3)],
        [(("solver", "beta"), 800)],
    ], ids=["default_beta", "explicit_beta"])
    def test_overflowing_weight_is_input_error(self, tmp_path, capsys,
                                               monkeypatch, edits):
        monkeypatch.setattr("mfbdsvie.cli.picard_solve", _never)
        doc = json.loads((SCENARIOS / "linear_solve.json").read_text())
        for path, value in edits:
            _set(doc, path, value)
        _assert_input_error(tmp_path, capsys, "solve", doc)

    @pytest.mark.parametrize("kind", [[1], {"const": 1}],
                             ids=["list", "object"])
    def test_smooth_kind_must_be_a_name(self, tmp_path, capsys, monkeypatch,
                                        kind):
        monkeypatch.setattr("mfbdsvie.cli.picard_solve", _never)
        doc = _set(base_doc(), ("terminal",), {"family": "smooth", "params": {
            "smooth": [{"kind": kind, "coef": 0.5}]}})
        _assert_input_error(tmp_path, capsys, "solve", doc)


SHIPPED = [("solve", "linear_solve"), ("norms", "linear_solve"),
           ("compare", "comparison_sandwich"), ("risk", "risk_translation"),
           ("malliavin", "linear_solve"), ("particles", "particles_coupled")]
TEXT_COLUMNS = {"axiom"}  # risk_axioms.csv names the axiom of each row


class TestNumericCells:
    @pytest.mark.parametrize("sub, name", SHIPPED,
                             ids=[sub for sub, _ in SHIPPED])
    def test_every_cell_is_a_number(self, tmp_path, sub, name):
        out = tmp_path / "out"
        assert run(sub, str(SCENARIOS / f"{name}.json"), str(out)) == 0
        tables = sorted(out.glob("*.csv"))
        assert tables
        for table in tables:
            header, *rows = table.read_text().splitlines()
            columns = header.split(",")
            for row in rows:
                for column, cell in zip(columns, row.split(","), strict=True):
                    if cell and column not in TEXT_COLUMNS:
                        float(cell)  # raises on np.float64(...) and the like


class TestNumericRange:
    """A terminal whose weighted square leaves the float range is refused
    before any solve, and a norm that is not finite never passes."""

    @pytest.mark.parametrize("sub, phi", [
        ("norms", 1e160),  # used to pass with inf norms
        ("solve", 1e300),  # used to run into NoConvergence
        ("solve", 1e308),  # used to overflow inside the sweep first
    ], ids=["1e160", "1e300", "1e308"])
    def test_large_terminal_is_input_error(self, tmp_path, capsys,
                                           monkeypatch, sub, phi):
        monkeypatch.setattr("mfbdsvie.cli.picard_solve", _never)
        doc = json.loads((SCENARIOS / "linear_solve.json").read_text())
        _set(doc, ("lattice", "n_steps"), 3)
        _set(doc, ("terminal", "params", "phi"), phi)
        _assert_input_error(tmp_path, capsys, sub, doc)

    def test_infinite_norm_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr("mfbdsvie.cli.m_beta_norm",
                            lambda *args: float("inf"))
        out = tmp_path / "out"
        assert run("norms", str(SCENARIOS / "linear_solve.json"),
                   str(out)) == 2
        summary = (out / "summary.txt").read_text()
        assert "norm_equivalence: FAIL" in summary
        assert "verdict: FAIL" in summary
        assert (out / "norms.csv").read_text().splitlines()[1].endswith(",0,0")
