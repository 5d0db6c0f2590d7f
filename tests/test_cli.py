"""Config parsing, report schema, exit codes, and suite aggregation."""

import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from demimart.cli import build_generator_spec, build_rule, config_from_dict, main, parse_config_text
from demimart.core import CHUNK_PATHS
from demimart.generators import (
    GeneratorSpec,
    centered,
    generate,
    iid_spec,
    rademacher,
    uniform,
    v_n,
)
from demimart.registry import PreconditionError, verify_detailed
from demimart.stopping import first_passage_up

T31_CFG = """\
experiment_id = t31-rademacher-n3-exact
theorem_id = T3.1
mode = exact
seed = 42
generator.family = iid
generator.law = rademacher
generator.horizon = 3
stopping.kind = first_passage_up
stopping.threshold = 1
stopping.cap = 3
"""

ADVERSARIAL_CFG = """\
experiment_id = negative-control
theorem_id = Def1.2
mode = exact
seed = 7
generator.family = adversarial_sign_flip
generator.horizon = 4
"""

REPORT_FIELDS = {
    "experiment_id",
    "theorem_id",
    "generator",
    "params",
    "mode",
    "seed",
    "lhs",
    "rhs",
    "direction",
    "z_margin",
    "verdict",
    "exact",
    "runtime_ms",
}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_dotted_keys_nest(self):
        doc = parse_config_text("a.b.c = 1\na.b.d = [1, 2]\nname = plain\n")
        assert doc == {"a": {"b": {"c": 1, "d": [1, 2]}}, "name": "plain"}

    def test_comments_and_blanks_skipped(self):
        doc = parse_config_text("# note\n\nx = 2\n")
        assert doc == {"x": 2}

    def test_duplicate_key_rejected(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            parse_config_text("x = 1\nx = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(PreconditionError, match="key = value"):
            parse_config_text("just words\n")


class TestVerifyCommand:
    def test_pass_exit_zero_and_schema(self, tmp_path, capsys):
        cfg = _write(tmp_path, "t31.cfg", T31_CFG)
        out = str(tmp_path / "report.json")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert set(report) == REPORT_FIELDS
        assert set(report["lhs"]) == {"mean", "stderr"}
        assert report["verdict"] == "PASS"
        assert report["exact"] is True
        assert report["mode"] == "exact"
        assert report["z_margin"] is None
        assert report["theorem_id"] == "T3.1-OST-upper"

    def test_one_path_reports_a_null_stderr(self, tmp_path, capsys):
        """One path has an infinite standard error, which strict JSON writes
        as null; the verdict is INCONCLUSIVE (exit 2)."""
        cfg = _write(tmp_path, "one.cfg", T31_CFG.replace("exact", "monte_carlo") + "paths = 1\n")
        out = str(tmp_path / "report.json")
        assert main(["verify", "--config", cfg, "--out", out]) == 2
        report = json.loads(open(out).read())
        assert report["lhs"]["stderr"] is None
        assert report["verdict"] == "INCONCLUSIVE"

    def test_readme_example_verifies(self, tmp_path, capsys):
        """The README's config example is a config that PASSes."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.S | re.M)
        cfg = _write(tmp_path, "readme.cfg", block)
        out = str(tmp_path / "report.json")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        assert json.loads(open(out).read())["verdict"] == "PASS"

    def test_missing_seed_exits_three(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", "theorem_id = T3.1\nmode = exact\n")
        assert main(["verify", "--config", cfg]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["field"] == "seed"
        assert err["error"]["message"] == "required"

    def test_unknown_theorem_exits_three(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", "theorem_id = T0.9\nseed = 1\n")
        assert main(["verify", "--config", cfg]) == 3

    def test_fail_exit_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, "adv.cfg", ADVERSARIAL_CFG)
        assert main(["check-demi", "--config", cfg]) == 1

    def test_seed_override(self, tmp_path, capsys):
        cfg = _write(tmp_path, "t31.cfg", T31_CFG)
        out = str(tmp_path / "r.json")
        main(["verify", "--config", cfg, "--seed", "99", "--out", out])
        assert json.loads(open(out).read())["seed"] == 99

    def test_determinism_modulo_runtime(self, tmp_path):
        cfg = _write(tmp_path, "t31.cfg", T31_CFG)
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            main(["verify", "--config", cfg, "--out", out])
            text = re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": 0', open(out).read())
            outs.append(text)
        assert outs[0] == outs[1]


class TestBoundCommand:
    def test_prints_value_with_inputs(self, capsys):
        assert main(["bound", "bernstein_tail", "t=10", "V=100", "C=1"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("bernstein_tail(t=10 V=100 C=1) = 0.616392731327")

    def test_unknown_bound(self, capsys):
        assert main(["bound", "nosuch", "x=1"]) == 3

    def test_domain_error(self, capsys):
        assert main(["bound", "phi_bound", "u=3"]) == 3

    def test_errors_are_json_on_stderr(self, capsys):
        cases = [
            (["bound", "nosuch", "x=1"], "bound"),
            (["bound", "phi_bound"], "u"),
            (["bound", "phi_bound", "u=3"], "phi_bound"),
            (["bound", "phi_bound", "u=abc"], "phi_bound"),
        ]
        for argv, field in cases:
            assert main(argv) == 3, argv
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["error"]["field"] == field, argv


class TestDataCommands:
    def test_gen_summary(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "gen.cfg",
            "seed = 3\npaths = 500\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 5\n",
        )
        assert main(["gen", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "paths: 500" in out
        assert "V_n (exact): 5" in out

    def test_gen_summary_over_two_chunks_is_the_last_column(self, tmp_path, capsys):
        """Over two chunks of a continuous moving sum, ``gen`` prints the
        mean and stderr (std with ddof=1 over sqrt(n)) of the last column of
        ``generate``."""
        n = 70_000
        cfg = _write(
            tmp_path,
            "gen.cfg",
            f"seed = 6\npaths = {n}\n"
            "generator.family = centered_partial_sum\ngenerator.inner.family = moving_sum\n"
            "generator.inner.law = uniform\ngenerator.inner.a = -0.5\ngenerator.inner.b = 2\n"
            "generator.inner.weights = [0.3, 0.7, 0.1]\ngenerator.horizon = 12\n",
        )
        assert main(["gen", "--config", cfg]) == 0
        spec = centered(
            GeneratorSpec("moving_sum", 12, law=uniform(-0.5, 2.0), weights=(0.3, 0.7, 0.1))
        )
        s_n = generate(spec, n, seed=6)[:, -1]
        stderr = s_n.std(ddof=1) / np.sqrt(n)
        assert capsys.readouterr().out.splitlines() == [
            f"generator_id: {spec.generator_id}",
            f"paths: {n}",
            "horizon: 12",
            f"E[S_n]: {s_n.mean():.12g} +- {stderr:.12g}",
            f"V_n (exact): {v_n(spec):.12g}",
        ]

    def test_gen_summary_memory_does_not_grow_with_paths(self, tmp_path, capsys):
        """``gen`` keeps one chunk of paths and a running mean and M2, not
        every path or S_n: four times the paths of a horizon-20 walk leave
        its traced peak within 2%."""
        peaks = []
        for paths in (1 << 17, 1 << 19):
            cfg = _write(
                tmp_path,
                "gen.cfg",
                f"seed = 2\npaths = {paths}\ngenerator.family = iid\n"
                "generator.law = uniform\ngenerator.a = -1\ngenerator.b = 1\n"
                "generator.horizon = 20\n",
            )
            tracemalloc.start()
            try:
                assert main(["gen", "--config", cfg]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert f"paths: {paths}" in capsys.readouterr().out
        assert peaks[1] <= 1.02 * peaks[0], peaks

    def test_gen_dump_paths_csv(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "gen.cfg",
            "seed = 3\npaths = 4\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 3\n",
        )
        out = str(tmp_path / "paths.csv")
        assert main(["gen", "--config", cfg, "--dump-paths", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "path_id,step,value"
        assert len(lines) == 1 + 4 * 3

    def test_stop_summary(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "stop.cfg",
            "seed = 3\npaths = 2000\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 6\n"
            "stopping.kind = first_passage_up\nstopping.threshold = 1\nstopping.cap = 6\n",
        )
        assert main(["stop", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "P(stopped): 1" in out

    def test_stop_summary_over_two_chunks_is_that_of_generate(self, tmp_path, capsys):
        """Over two chunks, ``stop`` prints the lines computed from the whole
        path matrix of ``generate``."""
        n = 70_000
        cfg = _write(
            tmp_path,
            "stop.cfg",
            f"seed = 4\npaths = {n}\ngenerator.family = iid\ngenerator.law = uniform\n"
            "generator.a = -1\ngenerator.b = 1\ngenerator.horizon = 20\n"
            "stopping.kind = first_passage_up\nstopping.threshold = 2\n",
        )
        assert main(["stop", "--config", cfg]) == 0
        paths = generate(iid_spec(uniform(-1.0, 1.0), 20), n, seed=4)
        tau = first_passage_up(2.0).tau_batch(paths)
        stopped = tau != -1
        t = tau[stopped]
        s_tau = paths[np.flatnonzero(stopped), t - 1]
        assert capsys.readouterr().out.splitlines() == [
            "rule: up(2.0)",
            f"P(stopped): {stopped.mean():.12g}",
            f"E[tau | stopped]: {t.mean():.12g}",
            f"E[S_tau | stopped]: {s_tau.mean():.12g}",
        ]

    def test_stop_memory_does_not_grow_with_paths(self, tmp_path, capsys):
        """``stop`` keeps one chunk of paths and a running mean and M2 of
        tau and S_tau, not every path or S_tau: four times the paths of a
        horizon-20 walk leave its traced peak within 2%."""
        peaks = []
        for paths in (1 << 17, 1 << 19):
            cfg = _write(
                tmp_path,
                "stop.cfg",
                f"seed = 2\npaths = {paths}\ngenerator.family = iid\n"
                "generator.law = uniform\ngenerator.a = -1\ngenerator.b = 1\n"
                "generator.horizon = 20\nstopping.kind = first_passage_up\n"
                "stopping.threshold = 3\n",
            )
            tracemalloc.start()
            try:
                assert main(["stop", "--config", cfg]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert "P(stopped): " in capsys.readouterr().out
        assert peaks[1] <= 1.02 * peaks[0], peaks

    @pytest.mark.parametrize("command", ["gen", "stop"])
    def test_zero_paths_is_a_json_error(self, tmp_path, capsys, command):
        """A library ValueError exits 3 with the JSON error, not a
        traceback and exit 1, the FAIL code."""
        cfg = _write(
            tmp_path,
            "zero.cfg",
            "seed = 3\npaths = 5\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 6\n"
            "stopping.kind = first_passage_up\nstopping.threshold = 1\n",
        )
        assert main([command, "--config", cfg, "--paths", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip())
        assert err == {"error": {"field": command, "message": "paths must be >= 1"}}

    @pytest.mark.parametrize("command", ["verify", "oracle"])
    def test_non_numeric_param_names_the_parameter(self, tmp_path, capsys, command):
        cfg = _write(
            tmp_path,
            "bad.cfg",
            "seed = 3\ntheorem_id = T4.7\nmode = exact\nparams.t = abc\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 4\n",
        )
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err == {"error": {"field": "params.t", "message": "expected float, got 'abc'"}}

    def test_dump_paths_with_zero_paths_is_a_json_error(self, tmp_path, capsys):
        """The CSV dump checks the path count before it writes a header."""
        cfg = _write(
            tmp_path,
            "zero.cfg",
            "seed = 3\npaths = 0\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 6\n",
        )
        out = tmp_path / "paths.csv"
        assert main(["gen", "--config", cfg, "--dump-paths", "--out", str(out)]) == 3
        assert not out.exists()
        assert main(["gen", "--config", cfg, "--dump-paths"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err == {"error": {"field": "gen", "message": "paths must be >= 1"}}

    @pytest.mark.parametrize(
        "command, option",
        [
            ("oracle", "--dump-paths"),
            ("oracle", "--seed"),
            ("oracle", "--paths"),
            ("oracle", "--out"),
            ("stop", "--out"),
            ("stop", "--dump-paths"),
            ("clt", "--dump-paths"),
            ("slln", "--dump-paths"),
            ("verify", "--dump-paths"),
            ("check-demi", "--dump-paths"),
        ],
    )
    def test_unread_options_are_rejected(self, tmp_path, command, option):
        cfg = _write(tmp_path, "any.cfg", "seed = 3\n")
        value = [] if option == "--dump-paths" else ["1"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, option, *value])
        assert exc.value.code == 2

    def test_oracle_stats(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "oracle.cfg",
            "params.t = 1\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 3\n",
        )
        assert main(["oracle", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "outcomes: 8" in out
        assert "total_probability: 1" in out
        assert "E[S_n^2]: 3" in out
        assert "P(S_n >= 1): 0.5" in out
        # the 2^21-outcome shared-shock chain at n = 20: Var S_n = n + n^2
        cfg = _write(
            tmp_path,
            "shock.cfg",
            "generator.family = shared_shock\n"
            "generator.base.law = rademacher\ngenerator.shock.law = rademacher\n"
            "generator.horizon = 20\n",
        )
        assert main(["oracle", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "outcomes: 2097152" in out
        assert "total_probability: 1\n" in out
        assert "E[S_n^2]: 420\n" in out
        # an alternating (sign-flip) chain: S_3 = X_1
        cfg = _write(
            tmp_path,
            "flip.cfg",
            "params.t = 1\n"
            "generator.family = adversarial_sign_flip\ngenerator.horizon = 3\n",
        )
        assert main(["oracle", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "outcomes: 2" in out
        assert "E[S_n^2]: 1" in out
        assert "P(S_n >= 1): 0.5" in out

    def test_chunk_boundary(self, tmp_path, capsys):
        """Across a chunk boundary the CSV dump, generate() and a Monte-Carlo
        verdict all walk the same paths."""
        n = CHUNK_PATHS + 3
        cfg = _write(
            tmp_path,
            "gen.cfg",
            f"seed = 4\npaths = {n}\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 2\n",
        )
        out = str(tmp_path / "paths.csv")
        assert main(["gen", "--config", cfg, "--dump-paths", "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        spec = iid_spec(rademacher(), 2)
        paths = generate(spec, n, seed=4)
        assert np.array_equal(rows[:, 0], np.repeat(np.arange(n), 2))
        assert np.array_equal(rows[:, 1], np.tile([1.0, 2.0], n))
        assert np.array_equal(rows[:, 2], paths.ravel())

        _, results, _ = verify_detailed(
            "T4.7", spec, params={"t": 1.0}, mode="monte_carlo", paths=n, seed=4
        )
        hits = paths[:, -1] >= 1.0
        assert results[0].stats.count == n
        assert results[0].stats.mean == pytest.approx(hits.mean(), rel=1e-12)
        stderr = hits.std(ddof=1) / np.sqrt(n)
        assert results[0].stats.stderr == pytest.approx(stderr, rel=1e-9)

    def test_clt_csv(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "clt.cfg",
            "seed = 3\npaths = 2000\nparams.n_grid = [16, 64]\n"
            "generator.family = shared_shock\ngenerator.horizon = 16\n"
            "generator.base.law = rademacher\ngenerator.shock.law = rademacher\n",
        )
        out = str(tmp_path / "clt.csv")
        assert main(["clt", "--config", cfg, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "n,sigma_n,V_n,ratio_cubed,ks_distance,ecf_distance"
        assert len(lines) == 3

    def test_slln_csv_and_exit(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "slln.cfg",
            "seed = 3\npaths = 20000\n"
            "params.r = 1\nparams.epsilon = 0.5\nparams.n_grid = [10, 20]\n"
            "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 10\n",
        )
        assert main(["slln", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("n,tail,stderr,envelope")


def _last_error(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err.strip().splitlines()[-1])["error"]


IID4 = "generator.family = iid\ngenerator.law = rademacher\ngenerator.horizon = 4\n"


class TestConfigKeys:
    """A top-level key is required only by the commands that read it."""

    def test_clt_needs_no_theorem_id(self, tmp_path, capsys):
        text = "seed = 3\npaths = 200\nparams.n_grid = [2, 4]\n" + IID4
        cfg = _write(tmp_path, "clt.cfg", text)
        assert main(["clt", "--config", cfg]) == 0

    def test_oracle_needs_neither_seed_nor_theorem_id(self, tmp_path, capsys):
        cfg = _write(tmp_path, "oracle.cfg", IID4)
        assert main(["oracle", "--config", cfg]) == 0
        assert "outcomes: 16" in capsys.readouterr().out

    def test_check_demi_needs_no_theorem_id(self, tmp_path, capsys):
        cfg = _write(tmp_path, "demi.cfg", "seed = 3\n" + IID4)
        assert main(["check-demi", "--config", cfg]) == 0

    def test_verify_still_needs_theorem_id(self, tmp_path, capsys):
        cfg = _write(tmp_path, "verify.cfg", "seed = 3\n" + IID4)
        assert main(["verify", "--config", cfg]) == 3
        assert _last_error(capsys) == {"field": "theorem_id", "message": "required"}


T31_STOP_CFG = T31_CFG.replace("seed = 42", "seed = 3\nparams.t = 1")


class TestConfigValues:
    """A value of the wrong JSON type is an exit-3 error that names its key,
    not a traceback and exit 1, the FAIL code."""

    @pytest.mark.parametrize(
        "command, line, bad, field",
        [
            ("verify", "generator.horizon = 3", "generator.horizon = [1, 2]", "generator.horizon"),
            ("verify", "stopping.threshold = 1", "stopping.threshold = [1]", "stopping.threshold"),
            ("verify", "stopping.threshold = 1", "stopping.threshold = abc", "stopping.threshold"),
            ("verify", "seed = 3", "seed = [1]", "seed"),
            ("verify", "params.t = 1", "params = 3", "params"),
            ("gen", "generator.horizon = 3", "generator.horizon = 6.7", "generator.horizon"),
            ("verify", "seed = 3", "seed = 3\npaths = true", "paths"),
            ("verify", "seed = 3", "seed = 3.5", "seed"),
            ("verify", "seed = 3", "seed = 3\ntolerance_z = NaN", "tolerance_z"),
            ("verify", "seed = 3", "seed = 3\ntolerance_z = Infinity", "tolerance_z"),
            ("verify", "seed = 3", "seed = 3\ntolerance_z = 0", "tolerance_z"),
            ("verify", "seed = 3", "seed = 3\ntolerance_z = -3", "tolerance_z"),
            (
                "gen",
                "generator.law = rademacher",
                "generator.law = bernoulli\ngenerator.p = [0.3]",
                "generator.p",
            ),
            ("clt", "params.t = 1", "params.n_grid = 5", "params.n_grid"),
            ("clt", "params.t = 1", "params.n_grid = [4, 6.5]", "params.n_grid"),
            (
                "slln",
                "params.t = 1",
                "params.n_grid = 5\nparams.r = 1\nparams.epsilon = 0.5",
                "params.n_grid",
            ),
        ],
    )
    def test_wrong_type_names_its_key(self, tmp_path, capsys, command, line, bad, field):
        assert line in T31_STOP_CFG
        cfg = _write(tmp_path, "bad.cfg", T31_STOP_CFG.replace(line, bad))
        assert main([command, "--config", cfg]) == 3
        assert _last_error(capsys)["field"] == field

    def test_integer_keys_refuse_what_int_would_coerce(self):
        """``int(6.7)`` is 6 and ``int(True)`` is 1: such a value is refused
        under its key, while an integral float such as ``1e6`` is kept."""
        doc = parse_config_text("seed = 1\npaths = 1e6\ngenerator.horizon = 6.7\n")
        assert config_from_dict(doc, ()).paths == 1_000_000
        with pytest.raises(PreconditionError, match=r"generator\.horizon: expected int, got 6\.7"):
            build_generator_spec({**doc["generator"], "family": "iid", "law": "rademacher"})
        with pytest.raises(PreconditionError, match="paths: expected int, got True"):
            config_from_dict(parse_config_text("seed = 1\npaths = true\n"), ())

    def test_suite_runs_past_a_wrongly_typed_file(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_pass.cfg").write_text(T31_CFG)
        bad = T31_CFG.replace("generator.horizon = 3", "generator.horizon = [3]")
        (d / "b_bad.cfg").write_text(bad.replace("n3-exact", "bad"))
        (d / "c_pass.cfg").write_text(T31_CFG.replace("n3-exact", "second"))
        out = str(tmp_path / "agg.json")
        assert main(["suite", str(d), "--out", out]) == 3
        rows = json.loads(open(out).read())["experiments"]
        assert [row["verdict"] for row in rows] == ["PASS", "ERROR", "PASS"]
        assert "expected int, got [3]" in rows[1]["message"]


SHOCK_CFG = (
    "seed = 3\ntheorem_id = T4.7\nparams.t = 1\ngenerator.family = shared_shock\n"
    "generator.horizon = 4\ngenerator.base.law = rademacher\ngenerator.shock.law = rademacher\n"
)
GAUSS_CFG = (
    "seed = 3\ntheorem_id = T4.7\nparams.t = 1\ngenerator.family = gaussian_assoc\n"
    "generator.horizon = 3\n"
)
T23_CFG = (Path(__file__).resolve().parents[1] / "configs" / "08-t23-two-stops.cfg").read_text()
KINDS = (
    "must be first_passage_up, first_passage_down, or deterministic (user rules are library-only)"
)
TABLE = "must be a table of dotted keys"
NO_FLOAT = "expected float, got True"

# each refusal of a config, by name: (config text, field, message)
CONFIG_REFUSALS = {
    "empty-key": (T31_CFG + "= 3\n", "config", "line 11: empty key"),
    "key-under-scalar": (T31_CFG + "seed.x = 1\n", "seed.x", "conflicts with a scalar key"),
    "unknown-mode": (
        T31_CFG.replace("mode = exact", "mode = fast"), "mode", "must be 'exact' or 'monte_carlo'"
    ),
    "no-law": (T31_CFG.replace("generator.law = rademacher\n", ""), "generator.law", "required"),
    "unknown-law": (
        T31_CFG.replace("= rademacher", "= cauchy"), "generator.law", "unknown law 'cauchy'"
    ),
    "generator-scalar": ("seed = 3\ntheorem_id = T3.1\ngenerator = 3\n", "generator", TABLE),
    "cov-scalar": (GAUSS_CFG + "generator.cov = 3\n", "generator.cov", TABLE),
    "stopping-scalar": (T31_CFG.split("stopping.")[0] + "stopping = 3\n", "stopping", TABLE),
    "stopping-zero": (
        T31_CFG.replace("T3.1", "T4.7").split("stopping.")[0] + "params.t = 1\nstopping = 0\n",
        "stopping",
        TABLE,
    ),
    "no-family": (
        T31_CFG.replace("generator.family = iid\n", ""), "generator.family", "required"
    ),
    "no-cov": (GAUSS_CFG, "generator.cov", "required"),
    "no-base": (
        SHOCK_CFG.replace("generator.base.law = rademacher\n", ""), "generator.base", "required"
    ),
    "no-shock": (
        SHOCK_CFG.replace("generator.shock.law = rademacher\n", ""), "generator.shock", "required"
    ),
    "no-inner": (
        T31_CFG.replace("family = iid", "family = centered_partial_sum"),
        "generator.inner",
        "required",
    ),
    "no-rule-kind": (
        T31_CFG.replace("stopping.kind = first_passage_up\n", ""), "stopping.kind", "required"
    ),
    "unknown-family": (
        T31_CFG.replace("family = iid", "family = levy"),
        "generator.family",
        "unknown family 'levy'",
    ),
    "unknown-rule-kind": (
        T31_CFG.replace("= first_passage_up", "= sideways"), "stopping.kind", KINDS
    ),
    # a key that nothing reads, in every table that is read
    "stray-top-level": (T31_CFG + "path = 1000\n", "path", "unknown key"),
    "stray-generator": (T31_CFG + "generator.p = 0.9\n", "generator.p", "unknown key"),
    "stray-base": (SHOCK_CFG + "generator.base.p = 0.5\n", "generator.base.p", "unknown key"),
    "stray-shock": (SHOCK_CFG + "generator.shock.a = 0\n", "generator.shock.a", "unknown key"),
    "stray-cov": (
        GAUSS_CFG + "generator.cov.kind = diagonal\ngenerator.cov.rho = 0.5\n",
        "generator.cov.rho",
        "unknown key",
    ),
    "stray-inner-horizon": (
        "seed = 3\ntheorem_id = T4.7\nparams.t = 1\ngenerator.horizon = 4\n"
        "generator.family = centered_partial_sum\ngenerator.inner.family = iid\n"
        "generator.inner.law = bernoulli\ngenerator.inner.p = 0.5\ngenerator.inner.horizon = 9\n",
        "generator.inner.horizon",
        "unknown key",
    ),
    "stray-stopping": (
        T31_CFG + "stopping.direction = none\n", "stopping.direction", "unknown key"
    ),
    "stray-stopping2": (
        T23_CFG + "stopping2.threshold = 1\n", "stopping2.threshold", "unknown key"
    ),
    # a float key refuses a boolean, as an integer key does
    "bool-param": (
        T31_CFG.replace("T3.1", "T4.7") + "params.t = true\n", "params.t", NO_FLOAT
    ),
    "bool-tolerance": (T31_CFG + "tolerance_z = true\n", "tolerance_z", NO_FLOAT),
    "bool-threshold": (
        T31_CFG.replace("threshold = 1", "threshold = true"), "stopping.threshold", NO_FLOAT
    ),
    "bool-weight": (
        T31_CFG.replace("family = iid", "family = moving_sum") + "generator.weights = [1, true]\n",
        "generator.weights",
        "expected list of float, got [1, True]",
    ),
}


class TestPreconditionFields:
    """Inputs a library condition or the config reader refuses exit 3 under
    the config key or the ``generator`` precondition, not under
    ``experiment``."""

    @pytest.mark.parametrize(
        "text, field, message",
        [
            (
                "seed = 3\ntheorem_id = C5.5\nmode = monte_carlo\npaths = 200\n"
                "generator.family = gaussian_assoc\ngenerator.horizon = 3\n"
                "generator.cov.kind = diagonal\nstopping.kind = deterministic\n"
                "stopping.step = 2\nparams.theta = 0.3\n",
                "generator",
                "requires a closed-form step log-MGF",
            ),
            (
                "seed = 3\ntheorem_id = L4.5\nmode = exact\n"
                "generator.family = adversarial_sign_flip\ngenerator.horizon = 4\n",
                "generator",
                "requires mean-zero steps",
            ),
            (
                T31_CFG.replace("first_passage_up", "deterministic").replace(
                    "stopping.threshold = 1", "stopping.step = 2\nstopping.direction = sideways"
                ),
                "stopping.direction",
                "must be nondecreasing, nonincreasing, or none",
            ),
            (
                T31_CFG.replace("first_passage_up", "deterministic").replace(
                    "stopping.threshold = 1", "stopping.step = 0"
                ),
                "stopping.step",
                "must be >= 1",
            ),
            (T31_CFG.replace("stopping.cap = 3", "stopping.cap = 0"), "stopping.cap", "must be >= 1"),
            (
                "seed = 3\ntheorem_id = C2.2\nmode = exact\n"
                "generator.family = shared_shock\ngenerator.horizon = 6\n"
                "generator.base.law = rademacher\ngenerator.shock.law = rademacher\n"
                "stopping.kind = first_passage_down\nstopping.threshold = -1\n",
                "stopping.direction",
                "indicator of down(-1.0) is not nondecreasing (target le)",
            ),
            (
                "seed = 3\ntheorem_id = Def1.2\nmode = exact\n"
                "generator.family = centered_partial_sum\ngenerator.horizon = 4\n"
                "generator.inner.family = adversarial_sign_flip\n",
                "generator",
                "cannot center adversarial_sign_flip: its step means alternate",
            ),
            (
                "seed = 3\ntheorem_id = T4.7\nmode = exact\nparams.t = 2\n"
                "generator.family = iid\ngenerator.law = uniform\n"
                "generator.a = -1\ngenerator.b = 1\ngenerator.horizon = 4\n",
                "mode",
                "exact mode unavailable: not enumerable: continuous increment law",
            ),
            *CONFIG_REFUSALS.values(),
        ],
        ids=["c55-gaussian", "l45-sign-flip", "sideways-direction", "step-zero", "cap-zero",
             "c22-down-rule", "centered-sign-flip", "t47-exact-uniform", *CONFIG_REFUSALS],
    )
    def test_refusal_names_its_field(self, tmp_path, capsys, text, field, message):
        cfg = _write(tmp_path, "bad.cfg", text)
        assert main(["verify", "--config", cfg]) == 3
        assert _last_error(capsys) == {"field": field, "message": message}

    def test_sign_flip_takes_the_offset(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "gen.cfg",
            "seed = 3\npaths = 50\ngenerator.family = adversarial_sign_flip\n"
            "generator.horizon = 3\ngenerator.offset = 5\n",
        )
        assert main(["gen", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("generator_id: adversarial_sign_flip/n=3/law=rademacher/offset=5.0\n")

    def test_centered_config_spelling_builds_the_flag(self, capsys):
        """``generator.family = centered_partial_sum`` with ``generator.inner.*``
        is the config spelling of ``centered(spec)``."""
        cfg = Path(__file__).resolve().parents[1] / "configs" / "23-c22-moving-sum-mc.cfg"
        assert main(["gen", "--config", str(cfg), "--paths", "10"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "generator_id: moving_sum/n=8/law=bernoulli(0.5)/w=(1.0,0.5)/centered"

    def test_gen_of_one_path_prints_an_infinite_stderr(self):
        """One path carries no spread: ``gen`` prints the +inf stderr of
        ``RunningStats``, and numpy writes no warning to stderr."""
        root = Path(__file__).resolve().parents[1]
        cfg = root / "configs" / "23-c22-moving-sum-mc.cfg"
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "demimart.cli", "gen", "--config", str(cfg), "--paths", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=False,
        )
        assert run.returncode == 0, run.stderr
        assert "\nE[S_n]: 2.5 +- inf\n" in run.stdout, run.stdout
        assert run.stderr == ""

    def test_gen_prints_v_n_of_a_centered_gaussian(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "gen.cfg",
            "seed = 3\npaths = 50\ngenerator.family = centered_partial_sum\n"
            "generator.inner.family = gaussian_assoc\ngenerator.inner.cov.kind = diagonal\n"
            "generator.horizon = 3\n",
        )
        assert main(["gen", "--config", cfg]) == 0
        assert "V_n (exact): 3\n" in capsys.readouterr().out


class TestCommandFields:
    """A library ValueError that names no field exits 3 under the field of
    its command; a missing top-level key is named, for every command."""

    @pytest.mark.parametrize(
        "command, text, error",
        [
            (
                "oracle",
                "generator.family = gaussian_assoc\ngenerator.horizon = 3\n"
                "generator.cov.kind = diagonal\n",
                {"field": "generator", "message": "not enumerable: family 'gaussian_assoc'"},
            ),
            (
                "clt",
                "seed = 3\npaths = 200\nparams.n_grid = [8, 4]\n" + IID4,
                {"field": "clt", "message": "n_grid must be strictly increasing"},
            ),
            (
                "slln",
                "seed = 3\npaths = 200\nparams.r = 1\nparams.epsilon = 0\n"
                "params.n_grid = [4, 8]\n" + IID4,
                {"field": "slln", "message": "r and epsilon must be positive"},
            ),
            (
                "slln",
                "seed = 3\npaths = 200\nparams.r = 1\nparams.epsilon = 0.5\n"
                "params.n_grid = [8, 8, 4]\n" + IID4,
                {"field": "slln", "message": "n_grid must be strictly increasing"},
            ),
            (
                "check-demi",
                "seed = 3\nparams.variant = sideways\n" + IID4,
                {"field": "params.variant", "message": "demimartingale or demisubmartingale"},
            ),
            (
                "slln",
                "seed = 3\npaths = 200\nparams.r = 1\nparams.epsilon = 0.5\n"
                "params.n_grid = [4, 8]\ngenerator.p = 0.5\n"
                + IID4.replace("rademacher", "bernoulli"),
                {"field": "generator", "message": "requires a demimartingale family"},
            ),
            ("stop", "seed = 3\n" + IID4, {"field": "stopping", "message": "required"}),
            (
                "stop",
                "seed = 3\nstopping.kind = deterministic\nstopping.step = 2\n",
                {"field": "generator", "message": "required"},
            ),
        ],
        ids=[
            "oracle",
            "clt",
            "slln",
            "slln-grid",
            "check-demi",
            "slln-drifting",
            "stop-no-stopping",
            "stop-no-generator",
        ],
    )
    def test_error_field(self, tmp_path, capsys, command, text, error):
        cfg = _write(tmp_path, "bad.cfg", text)
        assert main([command, "--config", cfg]) == 3
        assert _last_error(capsys) == error


class TestSuiteCommand:
    def test_empty_directory(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        assert main(["suite", str(d)]) == 0

    def test_pass_plus_fail_exits_one(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_pass.cfg").write_text(T31_CFG)
        (d / "b_fail.cfg").write_text(ADVERSARIAL_CFG)
        out = str(tmp_path / "agg.json")
        assert main(["suite", str(d), "--out", out]) == 1
        agg = json.loads(open(out).read())
        assert len(agg["experiments"]) == 2
        assert agg["counts"]["PASS"] == 1
        assert agg["counts"]["FAIL"] == 1

    def test_duplicate_experiment_id_is_error(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a.cfg").write_text(T31_CFG)
        (d / "b.cfg").write_text(T31_CFG)
        assert main(["suite", str(d)]) == 3
        out = capsys.readouterr().out
        assert "ERROR" in out

    def test_config_error_isolated_to_one_experiment(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_pass.cfg").write_text(T31_CFG)
        (d / "broken.cfg").write_text("theorem_id = T3.1\n")  # no seed
        assert main(["suite", str(d)]) == 3
        out = capsys.readouterr().out
        assert "PASS" in out and "ERROR" in out


class TestShippedSuite:
    """The shipped configs are the CI gate: their aggregate is pinned."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_aggregate_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "agg.json"
        assert main(["suite", str(self.ROOT / "configs"), "--out", str(out)]) == 0
        agg = json.loads(out.read_text())
        for row in agg["experiments"]:
            del row["runtime_ms"]
        text = json.dumps(agg, sort_keys=True, indent=2) + "\n"
        golden = (self.ROOT / "tests" / "data" / "suite_aggregate.json").read_text()
        assert text == golden

    def _results(self, name: str):
        doc = parse_config_text((self.ROOT / "configs" / name).read_text())
        _, results, _ = verify_detailed(
            doc["theorem_id"],
            build_generator_spec(doc["generator"]),
            rule=build_rule(doc["stopping"]),
            mode=doc["mode"],
            paths=doc.get("paths", 0),
            seed=doc["seed"],
        )
        return results

    def test_moving_sum_twins_agree(self):
        """Config 24 enumerates config 23's moving sum: each exact C2.2 check
        lies within 4 standard errors of its Monte-Carlo value."""
        exact = self._results("24-c22-moving-sum-exact.cfg")
        sampled = self._results("23-c22-moving-sum-mc.cfg")
        assert [r.name for r in exact] == [r.name for r in sampled] and len(exact) == 8
        for e, m in zip(exact, sampled):
            assert e.stats.stderr == 0.0
            assert abs(e.stats.mean - m.stats.mean) <= 4.0 * m.stats.stderr, e.name

    def test_exact_moving_sum_equals_brute_force(self):
        """Exact C2.2 on the moving sum X_i = Y_(i+1) + Y_i / 2 - 3/4 equals
        E[S_j - S_(tau^j)] over all 2^9 Bernoulli(1/2) draw vectors, tau the
        first passage of S above 1."""
        want = np.zeros(8)
        for y in itertools.product((0.0, 1.0), repeat=9):
            s = np.cumsum([y[i + 1] + 0.5 * y[i] - 0.75 for i in range(8)])
            tau = next((k for k in range(8) if s[k] >= 1.0), 8)
            want += [s[j] - s[min(tau, j)] for j in range(8)]
        got = [r.stats.mean for r in self._results("24-c22-moving-sum-exact.cfg")]
        np.testing.assert_allclose(got, want / 2**9, rtol=0, atol=1e-12)

    def test_every_probe_fails(self, tmp_path, capsys):
        probes = self.ROOT / "configs" / "probes"
        out = tmp_path / "probes.json"
        assert main(["suite", str(probes), "--out", str(out)]) == 1
        rows = json.loads(out.read_text())["experiments"]
        assert len(rows) == len(list(probes.glob("*.cfg"))) > 0
        assert all(row["verdict"] == "FAIL" for row in rows), rows


def _stderr_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


class TestIOErrors:
    """A file or directory that cannot be read or written exits 3 under the
    argument that names it, not with a traceback and exit 1."""

    def test_missing_config(self, tmp_path, capsys):
        cfg = str(tmp_path / "missing.cfg")
        assert main(["verify", "--config", cfg]) == 3
        error = _last_error(capsys)
        assert error["field"] == "config" and error["message"].endswith(repr(cfg))

    def test_unwritable_report(self, tmp_path, capsys):
        cfg = _write(tmp_path, "t31.cfg", T31_CFG)
        out = str(tmp_path / "no-such-dir" / "x.json")
        assert main(["verify", "--config", cfg, "--out", out]) == 3
        error = _last_error(capsys)
        # the message names the file given, not the temporary file written first
        assert error["field"] == "out" and error["message"].endswith(repr(out))

    def test_missing_suite_directory(self, tmp_path, capsys):
        d = str(tmp_path / "no-such-dir")
        assert main(["suite", d]) == 3
        error = _last_error(capsys)
        assert error["field"] == "directory" and error["message"].endswith(repr(d))

    def test_unwritable_aggregate(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_pass.cfg").write_text(T31_CFG)
        out = str(tmp_path / "no-such-dir" / "agg.json")
        assert main(["suite", str(d), "--out", out]) == 3
        error = _stderr_error(capsys)
        assert error["field"] == "out" and error["message"].endswith(repr(out))

    def test_unreadable_suite_config_is_an_error_row(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_pass.cfg").write_text(T31_CFG)
        (d / "b_dir.cfg").mkdir()
        out = str(tmp_path / "agg.json")
        assert main(["suite", str(d), "--out", out]) == 3
        rows = json.loads(open(out).read())["experiments"]
        assert [row["verdict"] for row in rows] == ["PASS", "ERROR"]
        assert rows[1]["message"].endswith(repr(str(d / "b_dir.cfg")))


# a Monte-Carlo tail check with paths * bound below 100 expected hits
T47_FEW_HITS = (
    "experiment_id = t47-few-hits\ntheorem_id = T4.7\nmode = monte_carlo\npaths = 200\n"
    "seed = 5\nparams.t = 3\n" + IID4
)
NO_SEED_CFG = "theorem_id = T3.1\n"


class TestOutcomes:
    """Every outcome path from a verdict to an exit code."""

    @pytest.mark.parametrize(
        "files, code",
        [
            ({"a.cfg": T31_CFG, "b.cfg": T47_FEW_HITS}, 2),
            ({"a.cfg": T31_CFG, "b.cfg": NO_SEED_CFG}, 3),
            ({"a.cfg": T47_FEW_HITS, "b.cfg": NO_SEED_CFG}, 3),
            ({"a.cfg": ADVERSARIAL_CFG, "b.cfg": NO_SEED_CFG, "c.cfg": T47_FEW_HITS}, 1),
        ],
        ids=["inconclusive", "error", "error-over-inconclusive", "fail-over-error"],
    )
    def test_suite_exits_with_its_worst_row(self, tmp_path, capsys, files, code):
        d = tmp_path / "suite"
        d.mkdir()
        for name, text in files.items():
            (d / name).write_text(text)
        out = tmp_path / "agg.json"
        assert main(["suite", str(d), "--out", str(out)]) == code
        counts = json.loads(out.read_text())["counts"]
        assert sum(counts.values()) == len(files)

    def test_verify_inconclusive_exits_two(self, tmp_path, capsys):
        cfg = _write(tmp_path, "t47.cfg", T47_FEW_HITS)
        assert main(["verify", "--config", cfg]) == 2

    def test_verify_prints_the_precheck(self, capsys):
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "18-c410-exp-stopped.cfg")
        assert main(["verify", "--config", cfg]) == 0
        err = capsys.readouterr().err
        assert re.search(r"^# demisub_precheck: PASS \(z_margin n/a\)$", err, re.M), err


class TestGeneratorReaders:
    """Config tables of the generator families the shipped configs do not use."""

    @staticmethod
    def _spec(text):
        return build_generator_spec(parse_config_text(text)["generator"])

    def test_uniform_law(self):
        spec = self._spec(
            "generator.family = iid\ngenerator.law = uniform\ngenerator.a = -1\n"
            "generator.b = 2\ngenerator.horizon = 3\n"
        )
        assert spec.generator_id == iid_spec(uniform(-1.0, 2.0), 3).generator_id

    def test_uniform_needs_both_ends(self, tmp_path, capsys):
        text = "seed = 3\ngenerator.family = iid\ngenerator.law = uniform\ngenerator.a = -1\n"
        cfg = _write(tmp_path, "gen.cfg", text + "generator.horizon = 3\n")
        assert main(["gen", "--config", cfg]) == 3
        assert _last_error(capsys) == {"field": "generator.a/b", "message": "required"}

    @pytest.mark.parametrize(
        "lines, want",
        [
            (
                "generator.cov.kind = equicorrelated\ngenerator.cov.var = 2\n"
                "generator.cov.rho = 0.25\n",
                np.full((4, 4), 0.5) + 1.5 * np.eye(4),
            ),
            (
                "generator.cov.kind = ar1\ngenerator.cov.var = 1.5\ngenerator.cov.rho = 0.5\n",
                1.5 * 0.5 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4))),
            ),
            (
                "generator.cov.kind = matrix\n"
                "generator.cov.matrix = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]\n",
                2.0 * np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1),
            ),
        ],
        ids=["equicorrelated", "ar1", "matrix"],
    )
    def test_gaussian_covariance(self, lines, want):
        spec = self._spec("generator.family = gaussian_assoc\ngenerator.horizon = 4\n" + lines)
        np.testing.assert_allclose(spec.covariance, want, rtol=1e-15, atol=0)

    def test_unknown_covariance_kind(self, tmp_path, capsys):
        text = "seed = 3\ngenerator.family = gaussian_assoc\ngenerator.horizon = 4\n"
        cfg = _write(tmp_path, "gen.cfg", text + "generator.cov.kind = banded\n")
        assert main(["gen", "--config", cfg]) == 3
        assert _last_error(capsys)["field"] == "generator.cov.kind"
