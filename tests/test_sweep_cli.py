import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from su11sim import InterferometerConfig, __version__, cli, closed_form, gaussian, metrics, sweep
from su11sim.errors import DomainError, Su11Error
from su11sim.metrics import ShotNoiseConvention


def make_spec(**overrides):
    kwargs = dict(
        axis="theta",
        lo=0.0,
        hi=math.pi,
        steps=5,
        fixed=InterferometerConfig(g1=0.1, g2=0.1),
        metrics=("mean", "visibility"),
    )
    kwargs.update(overrides)
    return sweep.SweepSpec(**kwargs)


def table_of(spec, rows):
    """The SweepTable that holds the given rows for spec's axis and metrics,
    None where a row has no value for a metric."""
    return sweep.SweepTable(spec.axis, [row.axis_value for row in rows],
                            {m: [row.values.get(m) for row in rows] for m in spec.metrics},
                            [row.error for row in rows])


class TestSweepSpec:
    def test_unknown_axis_rejected(self):
        with pytest.raises(DomainError):
            make_spec(axis="bogus")

    def test_unknown_metric_rejected(self):
        with pytest.raises(DomainError):
            make_spec(metrics=("mean", "bogus"))

    def test_empty_metrics_rejected(self):
        with pytest.raises(DomainError):
            make_spec(metrics=())

    def test_repeated_metric_rejected(self):
        with pytest.raises(DomainError, match=re.escape(
                "repeated metrics ['mean']; request each metric once")):
            make_spec(metrics=("mean", "mean"))

    def test_step_bounds(self):
        with pytest.raises(DomainError):
            make_spec(steps=1)
        with pytest.raises(DomainError):
            make_spec(steps=sweep.MAX_STEPS + 1)

    def test_transmission_axis_range(self):
        with pytest.raises(DomainError):
            make_spec(axis="t_s2", lo=0.0, hi=1.5)

    def test_range_whose_span_overflows_is_rejected(self):
        with pytest.raises(DomainError, match="hi - lo must be finite"):
            make_spec(lo=-1.7e308, hi=1.7e308, steps=3)

    def test_base_transmission_range(self):
        with pytest.raises(DomainError):
            make_spec(base_ts2=0.0)
        with pytest.raises(DomainError):
            make_spec(base_ti2=1.2)


class TestConfigAt:
    def test_theta_axis(self):
        spec = make_spec()
        assert sweep.config_at(spec, 1.25).theta == 1.25

    def test_base_composition(self):
        spec = make_spec(axis="t_s2", lo=0.0, hi=1.0, base_ts2=0.5)
        cfg = sweep.config_at(spec, 0.5)
        assert cfg.t_s**2 == pytest.approx(0.25)

    def test_axis_total_overrides_base(self):
        spec = make_spec(axis="t_s2", lo=0.0, hi=1.0, base_ts2=0.5, axis_total=True)
        cfg = sweep.config_at(spec, 0.3)
        assert cfg.t_s**2 == pytest.approx(0.3)

    def test_both_axis_moves_both_arms(self):
        spec = make_spec(axis="t_both2", lo=0.0, hi=1.0)
        cfg = sweep.config_at(spec, 0.49)
        assert cfg.t_s**2 == pytest.approx(0.49)
        assert cfg.t_i**2 == pytest.approx(0.49)


class TestRunSweep:
    def test_trivial_theta_sweep(self):
        rows = sweep.run_sweep(make_spec(steps=2, metrics=("mean",)))
        assert [r.axis_value for r in rows] == [0.0, math.pi]
        assert rows[0].values["mean"] == pytest.approx(math.sinh(0.2) ** 2, rel=1e-12)
        assert rows[1].values["mean"] == pytest.approx(0.0, abs=1e-14)
        assert all(r.error is None for r in rows)

    def test_point_errors_are_recorded_not_raised(self):
        # zero gain makes visibility undefined at every point
        spec = make_spec(
            fixed=InterferometerConfig(g1=0.0, g2=0.0), metrics=("visibility",)
        )
        rows = sweep.run_sweep(spec)
        assert all(r.error is not None for r in rows)
        assert all(r.values["visibility"] is None for r in rows)

    def test_two_runs_emit_identical_csv(self):
        spec = make_spec(steps=9, metrics=("mean", "visibility"))
        first = sweep.run_sweep(spec)
        second = sweep.run_sweep(spec)
        assert sweep.sweep_to_csv(spec, first) == sweep.sweep_to_csv(spec, second)

    @pytest.mark.parametrize(
        "wanted, blocks, phases",
        [(("visibility", "db_vs_shotnoise"), 1, 3),
         (("mean", "visibility", "dtheta2", "db_vs_shotnoise"), 2, 4)],
    )
    def test_fringe_metrics_share_one_phase_response(self, monkeypatch, wanted, blocks, phases):
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 4 // blocks)
        calls = {"loss": 0, "phase": 0}
        pairs = {"loss": 0, "phase": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                out = fn(*args, **kwargs)
                pairs[key] += math.prod(out.cov.shape[:-2])
                return out
            return wrapper

        monkeypatch.setattr(gaussian, "apply_loss", counting("loss", gaussian.apply_loss))
        monkeypatch.setattr(gaussian, "apply_phase", counting("phase", gaussian.apply_phase))
        spec = make_spec(axis="t_s2", lo=0.25, hi=1.0, steps=4, metrics=wanted)
        rows = sweep.run_sweep(spec)
        assert all(r.error is None for r in rows)
        # per block: one batched propagation to the phase over its points,
        # then one batched tail over its points x (0, pi/2, pi), plus each
        # point's own theta when the mean is asked for
        assert calls == {"loss": blocks, "phase": blocks}
        assert pairs == {"loss": 4, "phase": 4 * phases}

    @pytest.mark.parametrize(
        "fixed, axis, lo, hi, wanted, errors",
        [
            # random devices, lossy or lossless, seeded or not (the seed of
            # each is its axis' index in AXES)
            *[(None, axis, lo, hi, sweep.METRICS, ())
              for axis, lo, hi in (("t_s2", 0.0, 1.0), ("t_i2", 0.05, 1.0),
                                   ("t_both2", 0.0, 1.0), ("theta", -7.0, 7.0),
                                   ("n_i", 0.0, 1e3), ("G1", 0.0, 1.5),
                                   ("G2", 0.0, 1.5))],
            (dict(g1=0.1, g2=0.1), "G1", 0.0, 400.0, sweep.METRICS,
             ("overflow float64",)),
            (dict(g1=0.0, g2=0.0), "theta", 0.0, 1.0, ("mean", "visibility"),
             ("zero total flux",)),
            (dict(g1=0.3, g2=0.0, n_i=2.0), "t_s2", 0.1, 1.0, ("mean", "dtheta2"),
             ("g2 must be > 0",)),
            (dict(g1=0.1, g2=0.1), "t_s2", 0.0, 1e-30, ("visibility", "dtheta2"),
             ("interference term not resolved",)),
        ],
    )
    def test_batched_rows_equal_the_batch_of_one(
        self, monkeypatch, fixed, axis, lo, hi, wanted, errors
    ):
        rng = np.random.default_rng(sweep.AXES.index(axis))
        if fixed is None:
            lossless = rng.random() < 0.5
            fixed = dict(
                g1=rng.uniform(0.0, 1.5), g2=rng.uniform(0.05, 1.5),
                theta=rng.uniform(0.0, 2.0 * math.pi),
                t_s=1.0 if lossless else rng.uniform(0.3, 1.0),
                t_i=1.0 if lossless else rng.uniform(0.3, 1.0),
                n_i=rng.choice([0.0, rng.uniform(0.0, 1e3)]),
            )
        convention = ShotNoiseConvention(rng.choice([c.value for c in ShotNoiseConvention]))
        spec = make_spec(axis=axis, lo=lo, hi=hi, steps=41, metrics=wanted,
                         fixed=InterferometerConfig(**fixed), snl_convention=convention)
        # several blocks, so that block edges are crossed
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 16)
        rows = sweep.run_sweep(spec)
        assert [r.axis_value for r in rows] == list(sweep.grid(spec))
        for row in rows:
            values, error = {m: None for m in wanted}, None
            try:
                cfg = sweep.config_at(spec, row.axis_value)
                if "mean" in wanted:
                    values["mean"] = gaussian.photon_stats(gaussian.run_interferometer(cfg)).mean
                if "visibility" in wanted:
                    values["visibility"] = metrics.visibility_numeric(cfg)
                if {"dtheta2", "db_vs_shotnoise"} & set(wanted):
                    report = metrics.optimal_sensitivity(cfg, convention)
                    for m in ("dtheta2", "db_vs_shotnoise"):
                        if m in wanted:
                            values[m] = getattr(report, m)
            except Su11Error as exc:
                error = str(exc)
            assert row.error == error
            for m in wanted:
                if values[m] is None:
                    assert row.values[m] is None
                else:
                    assert row.values[m] == pytest.approx(values[m], rel=1e-13, abs=1e-300)
        for text in errors:
            assert any(text in (r.error or "") for r in rows)
        assert errors or sum(r.error is None for r in rows) > len(rows) // 2

class TestSerialization:
    def test_config_round_trip(self):
        spec = make_spec(
            axis="t_i2",
            lo=0.1,
            hi=0.9,
            base_ts2=0.52,
            base_ti2=0.42,
            snl_convention=ShotNoiseConvention.PAIR_AFTER_OPA1,
            axis_total=True,
            fixed=InterferometerConfig(g1=0.45, g2=0.2, theta=0.3, n_i=1e4),
        )
        text = sweep.spec_to_config_text(spec)
        assert sweep.spec_from_config(sweep.parse_config_text(text)) == spec

    def test_parse_comments_and_blanks(self):
        entries = sweep.parse_config_text(
            "# a comment\n\ng1 = 0.1  # trailing\naxis = theta\n"
        )
        assert entries == {"g1": "0.1", "axis": "theta"}

    def test_parse_malformed_line(self):
        with pytest.raises(DomainError):
            sweep.parse_config_text("g1 0.1\n")

    def test_missing_axis(self):
        with pytest.raises(DomainError):
            sweep.spec_from_config({"g1": "0.1"})

    def test_unknown_convention(self):
        with pytest.raises(DomainError):
            sweep.spec_from_config({"axis": "theta", "snl_convention": "bogus"})

    def test_csv_layout(self):
        spec = make_spec(steps=2, metrics=("mean",))
        rows = sweep.run_sweep(spec)
        lines = sweep.sweep_to_csv(spec, rows).splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert any("axis = theta" in ln for ln in header)
        assert data[0] == "theta,mean,error"
        assert len(data) == 3
        # numeric cells parse back to full precision
        value = float(data[1].split(",")[1])
        assert value == rows[0].values["mean"]

    def test_csv_quotes_error_messages(self):
        row = sweep.SweepRow(axis_value=0.5, values={"mean": None}, error='a,"b"')
        spec = make_spec(steps=2, metrics=("mean",))
        text = sweep.sweep_to_csv(spec, table_of(spec, [row]))
        assert '"a,""b"""' in text

    def test_json_mirror_matches_csv(self):
        spec = make_spec(steps=3, metrics=("mean", "visibility"))
        rows = sweep.run_sweep(spec)
        payload = json.loads(sweep.sweep_to_json(spec, rows))
        assert payload["spec"]["axis"] == "theta"
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["mean"] == rows[0].values["mean"]
        assert payload["rows"][0]["error"] is None


def reference_csv(spec, rows):
    """The CSV as the per-row writer formed it: each cell by repr(float(v)),
    empty for None, and the error quoted where it holds a separator."""

    def fmt(v):
        return "" if v is None else repr(float(v))

    def quote(text):
        if any(ch in text for ch in ',"\n\r'):
            return '"' + text.replace('"', '""') + '"'
        return text

    out = [f"# su11sim {__version__}"]
    out += [f"# {line}" for line in sweep.spec_to_config_text(spec).splitlines()]
    out.append(",".join([spec.axis, *spec.metrics, "error"]))
    for row in rows:
        cells = [fmt(row.axis_value), *(fmt(row.values.get(m)) for m in spec.metrics)]
        out.append(",".join([*cells, quote(row.error or "")]))
    return "\n".join(out) + "\n"


def reference_json(spec, rows):
    """The JSON as the per-row writer formed it, one dict per row."""
    payload = {
        "version": __version__,
        "spec": {key.name: key.get(spec) for key in sweep.CONFIG_KEYS},
        "rows": [
            {spec.axis: row.axis_value,
             **{m: row.values.get(m) for m in spec.metrics},
             "error": row.error}
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


HAND_MADE_ROWS = [
    sweep.SweepRow(0.0, {"mean": math.nan, "visibility": math.inf}),
    sweep.SweepRow(0.125, {"mean": -math.inf, "visibility": 1}),
    sweep.SweepRow(2, {"mean": 10**20, "visibility": -3}),
    sweep.SweepRow(np.float64(0.25), {"mean": np.float64(1.5e-300),
                                      "visibility": np.float64(-0.0)}),
    sweep.SweepRow(0.5, {"mean": 2.0}, 'comma, "quote"'),
    sweep.SweepRow(0.625, {"mean": None, "visibility": None}, "line\nbreak\r"),
    sweep.SweepRow(0.75, {"mean": 5e-324, "visibility": 1.7976931348623157e308},
                   "non-ASCII: θ ≠ π, ü"),
    sweep.SweepRow(0.875, {"visibility": 0.1}, ""),
    sweep.SweepRow(-1e-320, {}, "{braces} and \\ and \t"),
]


class TestWritersMatchPerRowReference:
    """sweep_to_csv and sweep_to_json build their text column by column; each
    must give the bytes of the per-row reference above."""

    @pytest.mark.parametrize("rows", [HAND_MADE_ROWS, HAND_MADE_ROWS[4:5], []],
                             ids=["hand_made", "one_row", "no_rows"])
    @pytest.mark.parametrize("metrics", [("mean", "visibility"), ("visibility",),
                                         ("visibility", "mean")])
    def test_hand_made_rows(self, rows, metrics):
        spec = make_spec(metrics=metrics)
        table = table_of(spec, rows)
        assert sweep.sweep_to_csv(spec, table) == reference_csv(spec, rows)
        assert sweep.sweep_to_json(spec, table) == reference_json(spec, rows)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sweeps(self, seed):
        rng = np.random.default_rng(seed)
        axis = sweep.AXES[seed % len(sweep.AXES)]
        lo, hi = {"theta": (-7.0, 7.0), "n_i": (0.0, 1e4), "G1": (0.0, 300.0),
                  "G2": (0.0, 300.0)}.get(axis, (0.0, 1.0))
        chosen = [m for m in sweep.METRICS if rng.random() < 0.6] or ["dtheta2"]
        spec = sweep.SweepSpec(
            axis=axis, lo=lo, hi=hi, steps=int(rng.integers(2, 300)),
            fixed=InterferometerConfig(g1=float(rng.uniform(0, 1)), g2=float(rng.uniform(0, 1)),
                                       n_i=float(rng.choice([0.0, 3.0, 1e4]))),
            metrics=tuple(str(m) for m in rng.permutation(chosen)),
            base_ts2=float(rng.uniform(0.1, 1)) if rng.random() < 0.5 else None,
            snl_convention=list(ShotNoiseConvention)[seed % 3],
        )
        rows = sweep.run_sweep(spec)
        assert sweep.sweep_to_csv(spec, rows) == reference_csv(spec, rows)
        assert sweep.sweep_to_json(spec, rows) == reference_json(spec, rows)


# run_sweep results that hold error cells: the G1 overflow sweep, and a
# huge-seed sweep whose last rows overflow
ERROR_CELL_SPECS = {
    "gain_overflow": sweep.SweepSpec(axis="G1", lo=0.0, hi=400.0, steps=9,
                                     fixed=InterferometerConfig(g1=0.0, g2=0.1),
                                     metrics=sweep.METRICS),
    "huge_seed": sweep.SweepSpec(axis="n_i", lo=1e150, hi=1.7e308, steps=7,
                                 fixed=InterferometerConfig(g1=0.1, g2=0.1),
                                 metrics=("db_vs_shotnoise", "mean", "visibility")),
}


class TestSharedColumnText:
    """Both writers read one text per column, kept on the SweepTable."""

    @pytest.mark.parametrize("name", sorted(ERROR_CELL_SPECS))
    def test_bytes_do_not_depend_on_call_order(self, name):
        spec = ERROR_CELL_SPECS[name]
        table = sweep.run_sweep(spec)
        assert any(table.errors) and not all(table.errors)
        rows = list(table)
        csv_text, json_text = reference_csv(spec, rows), reference_json(spec, rows)
        for _ in range(2):
            assert sweep.sweep_to_json(spec, table) == json_text
        for _ in range(2):
            assert sweep.sweep_to_csv(spec, table) == csv_text

    def test_each_column_is_converted_once(self, monkeypatch):
        spec = ERROR_CELL_SPECS["gain_overflow"]
        table = sweep.run_sweep(spec)
        converted = []
        tokens = sweep._json_tokens
        monkeypatch.setattr(sweep, "_json_tokens",
                            lambda column: converted.append(column) or tokens(column))
        for _ in range(2):
            sweep.sweep_to_csv(spec, table)
            sweep.sweep_to_json(spec, table)
        # the number columns are shared; the error column is read by the JSON alone
        columns = [table.axis_values, *table.values.values(), table.errors]
        assert len(converted) == len(columns) == 2 + len(spec.metrics)
        assert all(sum(c is column for c in converted) == 1 for column in columns)

    def test_rows_are_made_only_when_read(self, monkeypatch, tmp_path):
        made = []
        evaluate = sweep._evaluate_point
        monkeypatch.setattr(sweep, "_evaluate_point",
                            lambda *args: made.append(args[0]) or evaluate(*args))
        argv = ["sweep", "--axis", "G1", "--lo", "0", "--hi", "400", "--steps", "9",
                "--g2", "0.1", "--metrics", "mean,visibility",
                "--out", str(tmp_path / "s.csv"), "--json", str(tmp_path / "s.json")]
        assert cli.main(argv) == cli.EXIT_POINT_ERRORS
        assert made == []
        table = sweep.run_sweep(ERROR_CELL_SPECS["gain_overflow"])
        assert table[-1] == sweep.SweepRow(
            400.0, {m: None for m in sweep.METRICS}, table.errors[-1])
        assert table[1:3] == [table[1], table[2]]
        assert [row.axis_value for row in table] == table.axis_values
        assert made == [400.0, 50.0, 100.0, 50.0, 100.0, *table.axis_values]


class TestFigures:
    def test_unknown_figure(self):
        with pytest.raises(DomainError):
            sweep.figure_table("fig9z")

    def test_figure_is_deterministic(self, tmp_path):
        a = sweep.write_figure("fig2a", tmp_path / "a")
        b = sweep.write_figure("fig2a", tmp_path / "b")
        assert (tmp_path / "a" / "fig2a.csv").read_bytes() == (
            tmp_path / "b" / "fig2a.csv"
        ).read_bytes()
        assert [p.name for p in a] == [p.name for p in b] == ["fig2a.csv", "fig2a.gp"]

    def test_figure_columns(self):
        cols, table, errors, extra = sweep.figure_table("fig2a")
        assert cols == [
            "transmission",
            "v_signal_loss",
            "v_idler_loss",
            "v_symmetric_loss",
        ]
        assert len(table) == 100
        assert not errors
        assert extra == {}

    def test_figure3_reports_ideal_limit(self):
        _, _, _, extra = sweep.figure_table("fig3a")
        assert "db_ideal_limit" in extra


class TestValidateHarness:
    def test_zero_points_passes(self):
        report = sweep.validate(seed=1, points=0)
        assert report.passed
        assert report.points == 0

    def test_small_run_passes(self):
        report = sweep.validate(seed=7, points=5)
        assert report.passed, report.failures
        assert report.worst["mean_gaussian_vs_fock"] < sweep.CHECKS["mean_gaussian_vs_fock"][0]

    def test_point_budget(self):
        with pytest.raises(DomainError):
            sweep.validate(seed=1, points=10**4 + 1)

    def test_negative_seed(self, capsys):
        with pytest.raises(DomainError):
            sweep.validate(seed=-1, points=2)
        assert cli.main(["validate", "--seed", "-1", "--points", "2"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("su11: error:") and "Traceback" not in err

    def test_checks_are_the_benchmark_oracle_tolerances(self):
        # bench/workloads.py's check_oracle fails a round whose validate
        # reports any other set of checks, so a new check needs a benchmark
        # change first
        import ast

        workloads = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        bench = next(
            ast.literal_eval(node.value)
            for node in ast.parse(workloads.read_text()).body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "ORACLE_TOLERANCES" for t in node.targets)
        )
        checks = {name: rtol for name, (rtol, _) in sweep.CHECKS.items()}
        assert checks == bench, (
            "sweep.CHECKS differs from ORACLE_TOLERANCES in bench/workloads.py; "
            "the oracle-validate benchmark would reject every round, so change "
            "the benchmark to accept the new checks first"
        )

    def test_seeded_grid_is_reproducible(self):
        assert sweep.random_oracle_configs(3, 4) == sweep.random_oracle_configs(3, 4)

    def test_grid_is_the_per_config_draw(self):
        # one (points, 6) draw gives the doubles of drawing config by config
        def per_config(seed, points):
            rng = np.random.default_rng(seed)
            return [InterferometerConfig(
                g1=float(rng.uniform(0.0, 0.3)), g2=float(rng.uniform(0.0, 0.3)),
                theta=float(rng.uniform(0.0, 2.0 * math.pi)),
                t_s=float(rng.uniform(0.1, 1.0)), t_i=float(rng.uniform(0.1, 1.0)),
                n_i=float(rng.uniform(0.0, 4.0)),
            ) for _ in range(points)]

        for seed in (0, 3, 42, 180, 2**40 + 7):
            for points in (0, 1, 24, 200):
                assert sweep.random_oracle_configs(seed, points) == per_config(seed, points)

    def test_batched_visibility_equals_the_batch_of_one(self):
        # each batched Gaussian row is, bit for bit, the single-config engine's
        for seed, points in ((11, 400), (42, 200), (180, 200)):
            cfgs = sweep.random_oracle_configs(seed, points)
            expected = []
            for c in cfgs:
                stats = gaussian.photon_stats(gaussian.run_interferometer(c))
                expected.append((stats.mean, stats.variance, metrics.visibility_numeric(c), None))
            assert sweep._gaussian_rows(cfgs) == expected

    @pytest.mark.parametrize("closed_form_defined", [False, True])
    def test_undefined_visibility_row_is_flagged(self, monkeypatch, closed_form_defined):
        dark = InterferometerConfig(g1=0.0, g2=0.0, n_i=1.0)  # zero flux
        cfgs = [*sweep.random_oracle_configs(5, 2), dark, *sweep.random_oracle_configs(6, 1)]
        monkeypatch.setattr(sweep, "random_oracle_configs", lambda seed, points: cfgs)
        if closed_form_defined:
            # the Gaussian row's own zero-flux error must flag the point too
            visibility = closed_form.visibility
            monkeypatch.setattr(closed_form, "visibility",
                                lambda cfg: 0.5 if cfg is dark else visibility(cfg))
        report = sweep.validate(seed=5, points=4)
        assert report.passed, report.failures
        assert report.flagged == ["undefined-visibility: g1=0.0000 g2=0.0000 (skipped)"]
        assert report.worst_at["visibility_closed_form_vs_numeric"] is not dark


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--axis", "bogus"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_missing_axis_exit_code(self, capsys):
        assert cli.main(["sweep", "--g1", "0.1"]) == cli.EXIT_USAGE

    def test_sweep_from_flags_to_files(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        js = tmp_path / "s.json"
        rc = cli.main(
            [
                "sweep", "--g1", "0.1", "--g2", "0.1",
                "--axis", "theta", "--lo", "0", "--hi", str(math.pi),
                "--steps", "3", "--metrics", "mean,visibility",
                "--out", str(out), "--json", str(js),
            ]
        )
        assert rc == cli.EXIT_OK
        assert out.exists() and js.exists()
        payload = json.loads(js.read_text())
        assert payload["rows"][0]["mean"] == pytest.approx(
            math.sinh(0.2) ** 2, rel=1e-12
        )

    def test_sweep_from_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "g1 = 0.1\ng2 = 0.1\naxis = theta\nlo = 0\nhi = 1\nsteps = 2\n"
            "metrics = mean\n"
        )
        rc = cli.main(["sweep", "--config", str(cfg), "--steps", "4"])
        assert rc == cli.EXIT_OK
        data = [
            ln
            for ln in capsys.readouterr().out.splitlines()
            if ln and not ln.startswith("#")
        ]
        assert len(data) == 1 + 4  # header + overridden step count

    def test_sweep_repeated_metric_flag_is_usage_error(self, capsys):
        rc = cli.main(["sweep", "--axis", "theta", "--g1", "0.1", "--g2", "0.1",
                       "--metrics", "mean,visibility,mean"])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("su11: error: repeated metrics ['mean']; "
                                "request each metric once\n")

    def test_sweep_repeated_metric_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g1 = 0.1\ng2 = 0.1\naxis = theta\n"
                       "metrics = dtheta2, visibility, dtheta2, visibility\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("su11: error: repeated metrics ['dtheta2', 'visibility']; "
                                "request each metric once\n")

    def test_sweep_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("axis = theta\nbogus = 1\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_USAGE

    def test_sweep_point_errors_exit_code(self, capsys):
        rc = cli.main(
            [
                "sweep", "--g1", "0", "--g2", "0",
                "--axis", "theta", "--lo", "0", "--hi", "1", "--steps", "2",
                "--metrics", "visibility",
            ]
        )
        assert rc == cli.EXIT_POINT_ERRORS

    def test_figure_command(self, tmp_path, capsys):
        rc = cli.main(["figure", "fig2a", "--outdir", str(tmp_path), "--json"])
        assert rc == cli.EXIT_OK
        for name in ("fig2a.csv", "fig2a.gp", "fig2a.json"):
            assert (tmp_path / name).exists()

    def test_sensitivity_command(self, capsys):
        rc = cli.main(["sensitivity", "--g1", "0.1", "--g2", "0.1"])
        assert rc == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["dtheta2"] == pytest.approx(
            1.0 / math.sinh(0.2) ** 2, rel=1e-4
        )

    def test_visibility_command(self, capsys):
        rc = cli.main(["visibility", "--g1", "0.1", "--g2", "0.1", "--ts2", "0.5"])
        assert rc == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["visibility"] == pytest.approx(0.9428090415820635, rel=1e-9)

    def test_visibility_undefined_is_usage_error(self, capsys):
        assert cli.main(["visibility", "--g1", "0", "--g2", "0"]) == cli.EXIT_USAGE

    def test_validate_command(self, capsys):
        rc = cli.main(["validate", "--seed", "3", "--points", "4"])
        assert rc == cli.EXIT_OK
        assert "all checks passed" in capsys.readouterr().out

    def test_validate_budget_exceeded(self, capsys):
        assert cli.main(["validate", "--points", "100000"]) == cli.EXIT_USAGE

    def test_validate_negative_points_is_usage_error(self, capsys):
        assert cli.main(["validate", "--points", "-5"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "points must lie in" in captured.err
        assert "passed" not in captured.out

    @pytest.mark.parametrize("argv, bad, reason", [
        (["sweep", "--config", "{missing}"], "{missing}", "No such file or directory"),
        (["sweep", "--config", "{dir}"], "{dir}", "Is a directory"),
        (["sweep", "--config", "{latin1}"], "{latin1}", "not UTF-8 text (byte 15: "),
        (["sweep", "--axis", "theta", "--out", "{dir}"], "{dir}", "Is a directory"),
        (["sweep", "--axis", "theta", "--out", "{missing}/s.csv"], "{missing}/s.csv",
         "No such file or directory"),
        (["sweep", "--axis", "theta", "--out", "{file}/s.csv"], "{file}/s.csv",
         "Not a directory"),
        (["sweep", "--axis", "theta", "--json", "{dir}"], "{dir}", "Is a directory"),
        (["sweep", "--axis", "theta", "--json", "{missing}/s.json"], "{missing}/s.json",
         "No such file or directory"),
        (["figure", "fig2a", "--outdir", "{file}"], "{file}", "File exists"),
        (["figure", "fig2a", "--outdir", "{file}/out"], "{file}/out", "Not a directory"),
    ], ids=["config_missing", "config_dir", "config_not_utf8", "out_dir", "out_no_parent",
            "out_under_file", "json_dir", "json_no_parent", "outdir_is_file",
            "outdir_under_file"])
    def test_file_error_is_one_usage_error_line(self, tmp_path, capsys, argv, bad, reason):
        paths = dict(missing=tmp_path / "missing", dir=tmp_path, file=tmp_path / "file",
                     latin1=tmp_path / "latin1.cfg")
        paths["file"].write_text("")
        paths["latin1"].write_bytes(b"axis = theta\n# \xe9\n")
        assert cli.main([a.format(**paths) for a in argv]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"su11: error: {bad.format(**paths)}: {reason}")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("out, json_path", [
        (None, "{dir}"), ("{new}.csv", "{dir}"), ("{old}", "{dir}"), ("{dir}", "{new}.json"),
    ], ids=["json_dir_stdout", "json_dir_out_new", "json_dir_out_old", "out_dir_json_new"])
    def test_bad_output_path_writes_nothing(self, tmp_path, capsys, out, json_path):
        # every output path is checked before any output is written: nothing
        # on stdout, no new file left behind, an existing file not truncated
        paths = dict(dir=tmp_path, new=tmp_path / "new", old=tmp_path / "old.csv")
        paths["old"].write_text("old\n")
        argv = ["sweep", "--axis", "theta", "--g1", "0.1", "--g2", "0.1",
                "--json", json_path.format(**paths)]
        if out is not None:
            argv += ["--out", out.format(**paths)]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"su11: error: {tmp_path}: Is a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
        assert paths["old"].read_text() == "old\n"

    def test_sweep_non_integer_steps_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g1 = 0.1\ng2 = 0.1\naxis = theta\nsteps = 2.5\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "'steps'" in capsys.readouterr().err

    def test_sweep_non_numeric_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g1 = fast\naxis = theta\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "'g1'" in capsys.readouterr().err

    def test_sensitivity_unresolved_interference(self, capsys):
        rc = cli.main(["sensitivity", "--g1", ".1", "--g2", ".1", "--ts2", "1e-30"])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "interference term not resolved" in err
        assert "extremum" not in err

    @pytest.mark.parametrize("command", ["sensitivity", "visibility", "sweep"])
    @pytest.mark.parametrize("flag, value", [("--ts2", "-0.5"), ("--ti2", "-1"),
                                             ("--ts2", "1.5"), ("--ti2", "nan")])
    def test_transmission_outside_unit_interval_names_the_key(self, command, flag, value,
                                                              capsys):
        argv = [command, "--g1", "0.1", "--g2", "0.1", f"{flag}={value}"]
        if command == "sweep":
            argv += ["--axis", "theta"]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"su11: error: {flag[2:]} must lie in [0, 1], got {float(value)!r}\n"

    def test_config_file_transmission_outside_unit_interval(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g1 = 0.1\ng2 = 0.1\naxis = t_s2\nti2 = -0.25\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "su11: error: ti2 must lie in [0, 1], got -0.25\n"

    def test_theta_range_whose_span_overflows_is_usage_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["sweep", "--axis", "theta", "--lo=-1.7e308", "--hi", "1.7e308",
                           "--steps", "3"])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and caught == []
        assert captured.err.startswith("su11: error: sweep range span hi - lo must be finite")

    def test_config_bool_typo_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g1 = 0.1\ng2 = 0.1\naxis = t_s2\naxis_total = ture\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "'axis_total'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sensitivity", "visibility"])
    def test_gain_overflow_is_usage_error(self, command, capsys):
        rc = cli.main([command, "--g1", "400", "--g2", "0.1"])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "overflow" in captured.err
        assert "Traceback" not in captured.err
        assert "NaN" not in captured.out and "nan" not in captured.out

    def test_sweep_overflow_is_a_point_error(self, capsys):
        rc = cli.main(
            ["sweep", "--axis", "G1", "--lo", "0", "--hi", "400", "--steps", "3",
             "--g2", "0.1"]
        )
        assert rc == cli.EXIT_POINT_ERRORS
        data = [
            ln for ln in capsys.readouterr().out.splitlines()
            if ln and not ln.startswith("#")
        ]
        assert data[1].endswith(",")  # g1 = 0: no error
        assert data[-1].startswith("400.0,,") and "overflow" in data[-1]
        assert all(ln.split(",")[1] != "nan" for ln in data[1:])

    def test_axis_total_flag_spellings(self, capsys):
        argv = ["sweep", "--g1", "0.1", "--g2", "0.1", "--axis", "t_s2",
                "--base_ts2", "0.5", "--lo", "0.2", "--hi", "0.8"]
        outs = []
        for flag in ("--axis-total", "--axis_total"):
            assert cli.main(argv + [flag]) == cli.EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "# axis_total = true" in outs[0]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_gain_overflow_prints_one_error_line_and_no_warnings(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["sensitivity", "--g1", "400", "--g2", "0.1"])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("su11: error:")
        assert caught == []

    def test_sweep_overflow_leaves_stderr_empty(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(
                ["sweep", "--axis", "G1", "--lo", "0", "--hi", "400", "--steps", "3",
                 "--g2", "0.1"]
            )
        assert rc == cli.EXIT_POINT_ERRORS
        assert capsys.readouterr().err == ""
        assert caught == []

    def test_huge_seed_sensitivity_is_finite(self, capsys):
        # the slope squared overflows float64 from n_i ~ 1e159; the ratio does not
        rc = cli.main(["sensitivity", "--g1", "0.1", "--g2", "0.1", "--n_i", "1e160"])
        assert rc == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["dtheta2"] < 1e-150
        assert math.isfinite(payload["db_vs_shotnoise"])

    def test_huge_seed_sweep_fills_every_row(self, tmp_path, capsys):
        js = tmp_path / "s.json"
        rc = cli.main(
            ["sweep", "--g1", "0.1", "--g2", "0.1", "--axis", "n_i", "--lo", "1e150",
             "--hi", "1e300", "--steps", "4", "--metrics", "dtheta2,db_vs_shotnoise",
             "--json", str(js)]
        )
        assert rc == cli.EXIT_OK
        rows = json.loads(js.read_text())["rows"]
        assert len(rows) == 4
        # far above the vacuum, the seed sets both dtheta2 ~ 1/n_i and the shot
        # noise, so the dB figure no longer moves with n_i
        for row in rows:
            assert row["dtheta2"] * row["n_i"] == pytest.approx(
                rows[0]["dtheta2"] * rows[0]["n_i"], rel=1e-9
            )
            assert row["db_vs_shotnoise"] == pytest.approx(
                rows[0]["db_vs_shotnoise"], rel=1e-9
            )

    def test_validate_names_the_config_of_each_worst_deviation(self, capsys):
        assert cli.main(["validate", "--seed", "3", "--points", "4"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        worst = [i for i, ln in enumerate(lines) if ln.startswith("  worst ")]
        assert len(worst) == 5
        for i in worst:
            check, dev = re.fullmatch(r"  worst (\w+): (\S+)", lines[i]).groups()
            at = lines[i + 1]
            assert at.startswith("    at ")
            values = dict(item.split("=") for item in at.split()[1:])
            cfg = InterferometerConfig(**{k: float(v) for k, v in values.items()})
            devs, _ = sweep._validate_point(
                cfg, sweep._gaussian_rows([cfg])[0], sweep._fock_rows([cfg])[0]
            )
            assert f"{devs[check]:.3e}" == dev


class TestGivenTransmission:
    """Provenance records ts2 and ti2 as given, not as t**2 of the amplitude."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 10**15 - 1), st.integers(-285, 0))
    def test_short_decimal_prints_as_given(self, mantissa, exponent):
        x = float(f"{mantissa}e{exponent - 15}")  # at most 15 significant digits
        assume(x <= 1.0)
        assert sweep._given_square(math.sqrt(x)) == x

    @settings(max_examples=500, deadline=None)
    # below sqrt(float min) no float maps back: t * t has left the normal range
    @given(st.just(0.0) | st.floats(math.sqrt(sys.float_info.min), 1.0))
    def test_square_root_maps_back(self, t):
        assert math.sqrt(sweep._given_square(t)) == t

    @pytest.mark.parametrize("ts2", ["0.5", "0.7", "0.123", "1e-30", "0", "1"])
    def test_config_text_and_json_keep_the_given_value(self, ts2):
        spec = sweep.spec_from_config({"axis": "t_i2", "ts2": ts2, "ti2": ts2})
        assert f"ts2 = {float(ts2)!r}\nti2 = {float(ts2)!r}\n" in sweep.spec_to_config_text(spec)
        payload = json.loads(sweep.sweep_to_json(spec, table_of(spec, [])))
        assert payload["spec"]["ts2"] == payload["spec"]["ti2"] == float(ts2)


class TestConfigKeys:
    @pytest.mark.parametrize(
        "text, value",
        [("1", True), ("Yes", True), ("TRUE", True), ("0", False), ("no", False),
         ("False", False)],
    )
    def test_boolean_words(self, text, value):
        spec = sweep.spec_from_config({"axis": "theta", "axis_total": text})
        assert spec.axis_total is value

    def test_flag_overrides_file_value(self):
        spec = sweep.spec_from_config(
            {"axis": "theta", "g1": "0.1", "steps": "2"}, {"steps": 7}
        )
        assert spec.steps == 7 and spec.fixed.g1 == 0.1

    def test_unknown_key_is_named(self):
        with pytest.raises(DomainError, match="bogus"):
            sweep.spec_from_config({"axis": "theta", "bogus": "1"})

    def test_bad_choice_is_named(self):
        with pytest.raises(DomainError, match="'axis'"):
            sweep.spec_from_config({"axis": "sideways"})

    def test_json_spec_lists_every_key(self):
        spec = make_spec(steps=2, metrics=("mean",))
        payload = json.loads(sweep.sweep_to_json(spec, sweep.run_sweep(spec)))
        assert sorted(payload["spec"]) == sorted(k.name for k in sweep.CONFIG_KEYS)

    def test_readme_lists_the_config_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        match = re.search(r"with keys\s+`([^`]*)`", readme)
        assert match is not None
        assert match.group(1).split() == [k.name for k in sweep.CONFIG_KEYS]
