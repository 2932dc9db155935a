"""Parameter sweeps, figure-data presets, the three-way validation harness
and deterministic CSV/JSON emission.

A sweep is evaluated in blocks of BLOCK_POINTS grid points, each as columns
from end to end: the block's axis values become one config.ConfigStack by
array operations (config_at is its batch of one), metrics.metric_columns
propagates it once and returns one column per metric with each row's first
error, and the block's rows are built from those columns.  SweepSpec rejects
every range whose grid could hold an invalid configuration, so a block needs
no per-row config check.

CSV and JSON are written column by column: each output column becomes text in
one conversion and the rows are filled into a fixed template of the sweep's
columns, so the JSON is byte-identical to json.dumps(indent=2, sort_keys=True)
without that call's pure-Python encoder."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__, closed_form, fock, gaussian, metrics
from .config import ConfigStack, InterferometerConfig
from .errors import DomainError, Su11Error, UndefinedVisibilityError
from .metrics import ShotNoiseConvention

AXES = ("t_s2", "t_i2", "t_both2", "theta", "n_i", "G1", "G2")
METRICS = ("mean", "visibility", "dtheta2", "db_vs_shotnoise")
MAX_STEPS = 10**6
# grid points per batched propagation.  From about 64 points up, a block's
# fixed numpy overhead is small against its per-point work; at 128 its stacks
# and per-point objects stay under 1 MB, so a sweep peaks no higher than one
# evaluated point by point.  A MAX_STEPS sweep in one stack would take 640 MB.
BLOCK_POINTS = 128


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis over a fixed configuration, plus the requested metrics.

    The *2 axes sweep power transmission t^2.  If base transmissions are set,
    the swept transmission axis is an extra filter multiplied onto the base;
    with axis_total=True the axis value is reinterpreted as the total power
    transmission of the swept mode instead.
    """

    axis: str
    lo: float
    hi: float
    steps: int
    fixed: InterferometerConfig
    metrics: tuple[str, ...] = ("mean",)
    base_ts2: float | None = None
    base_ti2: float | None = None
    snl_convention: ShotNoiseConvention = ShotNoiseConvention.AFTER_OPA1
    axis_total: bool = False

    def __post_init__(self):
        if self.axis not in AXES:
            raise DomainError(f"unknown axis {self.axis!r}; expected one of {AXES}")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise DomainError(f"unknown metrics {unknown}; expected subset of {METRICS}")
        if not self.metrics:
            raise DomainError("at least one metric must be requested")
        if not 2 <= self.steps <= MAX_STEPS:
            raise DomainError(f"steps must lie in [2, {MAX_STEPS}], got {self.steps}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("sweep range must be finite")
        if not math.isfinite(self.hi - self.lo):
            raise DomainError(f"sweep range span hi - lo must be finite, got "
                              f"lo={self.lo!r}, hi={self.hi!r}")
        lo, hi = min(self.lo, self.hi), max(self.lo, self.hi)
        if self.axis in ("t_s2", "t_i2", "t_both2") and not (0.0 <= lo and hi <= 1.0):
            raise DomainError(f"{self.axis} range must lie in [0, 1]")
        if self.axis in ("n_i", "G1", "G2") and lo < 0.0:
            raise DomainError(f"{self.axis} range must be >= 0")
        for name, v in (("base_ts2", self.base_ts2), ("base_ti2", self.base_ti2)):
            if v is not None and not 0.0 < v <= 1.0:
                raise DomainError(f"{name} must lie in (0, 1], got {v}")


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    values: dict[str, float | None] = field(default_factory=dict)
    error: str | None = None


def grid(spec: SweepSpec) -> np.ndarray:
    return np.linspace(spec.lo, spec.hi, spec.steps)


# the axes that set one device parameter to the axis value
_PARAMETER_AXES = {"theta": "theta", "n_i": "n_i", "G1": "g1", "G2": "g2"}


def _block_configs(spec: SweepSpec, xs: np.ndarray) -> ConfigStack:
    """The configurations at the axis values xs as one stack, composing base
    transmissions.  Every value on the grid of a valid spec resolves to a
    valid configuration."""
    cfg = spec.fixed
    ts2 = cfg.t_s**2 if spec.base_ts2 is None else spec.base_ts2
    ti2 = cfg.t_i**2 if spec.base_ti2 is None else spec.base_ti2
    if spec.axis in ("t_s2", "t_both2"):
        ts2 = xs if spec.axis_total or spec.base_ts2 is None else spec.base_ts2 * xs
    if spec.axis in ("t_i2", "t_both2"):
        ti2 = xs if spec.axis_total or spec.base_ti2 is None else spec.base_ti2 * xs
    params = dict(g1=cfg.g1, g2=cfg.g2, theta=cfg.theta,
                  t_s=np.sqrt(ts2), t_i=np.sqrt(ti2), n_i=cfg.n_i)
    if spec.axis in _PARAMETER_AXES:
        params[_PARAMETER_AXES[spec.axis]] = xs
    return ConfigStack(*(np.full(xs.shape, params[name], dtype=float)
                         for name in ConfigStack._fields))


def config_at(spec: SweepSpec, x: float) -> InterferometerConfig:
    """Resolve the configuration at one axis value, composing base
    transmissions: the batch of one of a block's stack."""
    return InterferometerConfig(*(float(a[0]) for a in _block_configs(spec, np.array([x]))))


def _evaluate_point(
    x: float, values: dict[str, float | None], error: Su11Error | None
) -> SweepRow:
    """One row from its block's columns: its metric values and first error."""
    return SweepRow(axis_value=x, values=values, error=None if error is None else str(error))


def _evaluate_block(spec: SweepSpec, xs: np.ndarray) -> list[SweepRow]:
    """The rows of a block of grid points: their configs as one stack, its
    metric columns from one batched propagation, then one row per point."""
    columns, errors = metrics.metric_columns(
        _block_configs(spec, xs), spec.metrics, spec.snl_convention
    )
    return [
        _evaluate_point(x, dict(zip(spec.metrics, values)), error)
        for x, error, *values in zip(xs.tolist(), errors, *columns.values())
    ]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the requested metrics at every grid point, in axis order,
    BLOCK_POINTS points per batched propagation."""
    xs = grid(spec)
    rows: list[SweepRow] = []
    for start in range(0, len(xs), BLOCK_POINTS):
        rows += _evaluate_block(spec, xs[start:start + BLOCK_POINTS])
    return rows


# --- config keys: one table drives the config file, CLI flags and provenance --


def boolean(text: str) -> bool:
    """1/true/yes or 0/false/no, in any case."""
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return word in ("1", "true", "yes")


def name_list(text: str) -> tuple[str, ...]:
    """Comma-separated names, blanks dropped."""
    return tuple(m.strip() for m in text.split(",") if m.strip())


@dataclass(frozen=True)
class ConfigKey:
    """One config-file key: how its text parses, its default, the value a
    SweepSpec holds for it, and the allowed words if it is a choice."""

    name: str
    parse: Callable[[str], Any]
    default: Any
    get: Callable[[SweepSpec], Any]
    choices: tuple[str, ...] | None = None
    help: str | None = None


CONFIG_KEYS = (
    ConfigKey("g1", float, 0.0, lambda s: s.fixed.g1),
    ConfigKey("g2", float, 0.0, lambda s: s.fixed.g2),
    ConfigKey("theta", float, 0.0, lambda s: s.fixed.theta),
    ConfigKey("ts2", float, 1.0, lambda s: s.fixed.t_s**2),
    ConfigKey("ti2", float, 1.0, lambda s: s.fixed.t_i**2),
    ConfigKey("n_i", float, 0.0, lambda s: s.fixed.n_i),
    ConfigKey("snl_convention", str, ShotNoiseConvention.AFTER_OPA1.value,
              lambda s: s.snl_convention.value, tuple(c.value for c in ShotNoiseConvention)),
    ConfigKey("axis", str, None, lambda s: s.axis, AXES),
    ConfigKey("lo", float, 0.0, lambda s: s.lo),
    ConfigKey("hi", float, 1.0, lambda s: s.hi),
    ConfigKey("steps", int, 2, lambda s: s.steps),
    ConfigKey("metrics", name_list, ("mean",), lambda s: s.metrics,
              help="comma-separated subset of " + ",".join(METRICS)),
    ConfigKey("base_ts2", float, None, lambda s: s.base_ts2),
    ConfigKey("base_ti2", float, None, lambda s: s.base_ti2),
    ConfigKey("axis_total", boolean, False, lambda s: s.axis_total,
              help="treat the swept transmission as total, not an extra filter"),
)
# the device alone: gains, phase, transmissions, seed and shot-noise convention
DEVICE_KEYS = CONFIG_KEYS[:7]


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


def spec_to_config_text(spec: SweepSpec) -> str:
    """Serialize a sweep spec to the flat key/value config format; keys whose
    value is None or False are left out."""
    values = ((key.name, key.get(spec)) for key in CONFIG_KEYS)
    return "".join(
        f"{name} = {_text(v)}\n" for name, v in values if v is not None and v is not False
    )


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat "key = value" lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def config_values(entries: dict[str, str], overrides: dict | None = None) -> dict:
    """Typed value of every config key: an already typed override (a
    command-line flag), else the parsed config entry, else the default."""
    unknown = sorted(set(entries) - {key.name for key in CONFIG_KEYS})
    if unknown:
        raise DomainError(f"unknown config keys: {unknown}")
    values = {key.name: key.default for key in CONFIG_KEYS}
    for key in CONFIG_KEYS:
        if key.name not in entries:
            continue
        text = entries[key.name]
        try:
            values[key.name] = key.parse(text)
        except ValueError:
            raise DomainError(
                f"config key {key.name!r}: expected {key.parse.__name__}, got {text!r}"
            ) from None
        if key.choices is not None and text not in key.choices:
            raise DomainError(
                f"config key {key.name!r}: expected one of {key.choices}, got {text!r}"
            )
    return {**values, **(overrides or {})}


def device_from_values(values: dict) -> tuple[InterferometerConfig, ShotNoiseConvention]:
    """The device and the shot-noise convention that typed config values name."""
    for key in ("ts2", "ti2"):
        if not 0.0 <= values[key] <= 1.0:  # also rejects nan
            raise DomainError(f"{key} must lie in [0, 1], got {values[key]!r}")
    cfg = InterferometerConfig(
        g1=values["g1"], g2=values["g2"], theta=values["theta"],
        t_s=math.sqrt(values["ts2"]), t_i=math.sqrt(values["ti2"]), n_i=values["n_i"],
    )
    return cfg, ShotNoiseConvention(values["snl_convention"])


def spec_from_config(entries: dict[str, str], overrides: dict | None = None) -> SweepSpec:
    """Build a sweep spec from parsed config entries, plus typed overrides."""
    v = config_values(entries, overrides)
    if v["axis"] is None:
        raise DomainError("config must define an axis")
    fixed, convention = device_from_values(v)
    return SweepSpec(
        axis=v["axis"], lo=v["lo"], hi=v["hi"], steps=v["steps"], fixed=fixed,
        metrics=v["metrics"], base_ts2=v["base_ts2"], base_ti2=v["base_ti2"],
        snl_convention=convention, axis_total=v["axis_total"],
    )


# --- output ------------------------------------------------------------------


def _fmt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def _csv_quote(s: str) -> str:
    if any(ch in s for ch in ',"\n\r'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _columns(spec: SweepSpec, rows: list[SweepRow]) -> dict[str, list]:
    """The rows as one column per output field: the axis value, each metric
    (None where a row has no value for it) and the error."""
    values = [row.values for row in rows]
    return {
        spec.axis: [row.axis_value for row in rows],
        **{m: [v.get(m) for v in values] for m in spec.metrics},
        "error": [row.error for row in rows],
    }


def _json_tokens(column: list) -> list[str]:
    """The JSON text of each value of a column, as json.dumps writes it at any
    indent (float repr, null, NaN, Infinity), from one call.  An encoded value
    never holds a raw newline, so the newline separates them."""
    return json.dumps(column, separators=("\n", ": "))[1:-1].split("\n") if column else []


def sweep_to_csv(spec: SweepSpec, rows: list[SweepRow]) -> str:
    """Render a sweep as CSV with a '#'-prefixed header block for provenance."""
    header = [f"# su11sim {__version__}"]
    for line in spec_to_config_text(spec).splitlines():
        header.append(f"# {line}")
    names = [spec.axis, *spec.metrics, "error"]
    columns = _columns(spec, rows)
    cells = [list(map(_fmt, columns[name])) for name in names[:-1]]
    cells.append([_csv_quote(e) if e else "" for e in columns["error"]])
    return "\n".join([*header, ",".join(names), *map(",".join, zip(*cells)), ""])


def sweep_to_json(spec: SweepSpec, rows: list[SweepRow]) -> str:
    """JSON mirror of the CSV output, identical field names.  The text is that
    of json.dumps({"version", "spec", "rows"}, indent=2, sort_keys=True), with
    each row filled into the template of its sorted keys."""
    columns = _columns(spec, rows)
    keys = sorted(columns)
    template = "    {\n" + ",\n".join(f"      {json.dumps(key)}: %s" for key in keys) + "\n    }"
    items = ",\n".join(map(template.__mod__, zip(*(_json_tokens(columns[k]) for k in keys))))
    rest = json.dumps({"spec": {key.name: key.get(spec) for key in CONFIG_KEYS},
                       "version": __version__}, indent=2, sort_keys=True)
    # "rows" sorts before "spec" and "version", so it opens the object
    rows_value = ["[\n", items, "\n  ]"] if rows else ["[]"]
    return "".join(['{\n  "rows": ', *rows_value, ",\n", rest[len("{\n"):], "\n"])


# --- figure presets -----------------------------------------------------------

FIGURES = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b")

_LOW_GAIN = 0.1
_UNBALANCED = dict(g1=0.45, g2=0.2, base_ts2=0.52, base_ti2=0.42)


def _figure_series(
    name: str,
    convention: ShotNoiseConvention,
    axis_total: bool,
) -> tuple[dict[str, SweepSpec], dict]:
    """Per-curve sweep specs, all on one grid, and extra metadata for one
    figure preset."""
    if name in ("fig2a", "fig2b"):
        n_i = 0.0 if name == "fig2a" else 50.0
        mk = lambda axis: SweepSpec(
            axis=axis, lo=0.01, hi=1.0, steps=100,
            fixed=InterferometerConfig(g1=_LOW_GAIN, g2=_LOW_GAIN, n_i=n_i),
            metrics=("visibility",), snl_convention=convention,
        )
        series = {
            "v_signal_loss": mk("t_s2"),
            "v_idler_loss": mk("t_i2"),
            "v_symmetric_loss": mk("t_both2"),
        }
        return series, {}
    if name in ("fig3a", "fig3b"):
        n_i = 0.0 if name == "fig3a" else 50.0
        fixed = InterferometerConfig(g1=_LOW_GAIN, g2=_LOW_GAIN, n_i=n_i)
        mk = lambda axis: SweepSpec(
            axis=axis, lo=0.25, hi=1.0, steps=40, fixed=fixed,
            metrics=("db_vs_shotnoise",), snl_convention=convention,
        )
        series = {
            "db_signal_loss": mk("t_s2"),
            "db_idler_loss": mk("t_i2"),
            "db_symmetric_loss": mk("t_both2"),
        }
        ideal = closed_form.ideal_sensitivity(_LOW_GAIN, n_i)
        snl = metrics.shot_noise_level(fixed, convention)
        return series, {"db_ideal_limit": 10.0 * math.log10(snl / ideal)}
    if name in ("fig4a", "fig4b"):
        axis = "t_s2" if name == "fig4a" else "t_i2"
        mk = lambda n_i: SweepSpec(
            axis=axis, lo=0.01, hi=1.0, steps=100,
            fixed=InterferometerConfig(g1=_UNBALANCED["g1"], g2=_UNBALANCED["g2"], n_i=n_i),
            metrics=("visibility",),
            base_ts2=_UNBALANCED["base_ts2"], base_ti2=_UNBALANCED["base_ti2"],
            snl_convention=convention, axis_total=axis_total,
        )
        series = {"v_spontaneous": mk(0.0), "v_stimulated": mk(1.0e4)}
        return series, {}
    raise DomainError(f"unknown figure {name!r}; expected one of {FIGURES}")


def figure_table(
    name: str,
    convention: ShotNoiseConvention = ShotNoiseConvention.PAIR_AFTER_OPA1,
    axis_total: bool = False,
) -> tuple[list[str], list[list[float | None]], list[str], dict]:
    """Evaluate one figure preset; returns (columns, rows, errors, extra)."""
    series, extra = _figure_series(name, convention, axis_total)
    xs = grid(next(iter(series.values())))
    results = {label: run_sweep(spec) for label, spec in series.items()}
    cols = ["transmission", *results.keys()]
    table: list[list[float | None]] = []
    errors: list[str] = []
    for i, x in enumerate(xs):
        row: list[float | None] = [float(x)]
        for label in results:
            r = results[label][i]
            row.append(r.values.get(series[label].metrics[0]))
            if r.error:
                errors.append(f"{label}@{x:g}: {r.error}")
        table.append(row)
    return cols, table, errors, extra


def _gnuplot_sidecar(name: str, cols: list[str]) -> str:
    lines = [
        "set datafile separator ','",
        f"set title '{name}'",
        "set xlabel 'transmission'",
        "set key outside",
        "plot \\",
    ]
    plots = [
        f"  '{name}.csv' using 1:{i + 2} with lines title '{col}'"
        for i, col in enumerate(cols[1:])
    ]
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"


def write_figure(
    name: str,
    outdir: str | Path,
    convention: ShotNoiseConvention = ShotNoiseConvention.PAIR_AFTER_OPA1,
    axis_total: bool = False,
    json_mirror: bool = False,
) -> list[Path]:
    """Emit one figure preset as CSV plus a gnuplot sidecar; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cols, table, errors, extra = figure_table(name, convention, axis_total)
    lines = [f"# su11sim {__version__}", f"# figure = {name}"]
    lines.append(f"# snl_convention = {convention.value}")
    lines.append(f"# axis_total = {str(axis_total).lower()}")
    for k, v in extra.items():
        lines.append(f"# {k} = {v!r}")
    for err in errors:
        lines.append(f"# error: {err}")
    lines.append(",".join(cols))
    for row in table:
        lines.append(",".join(_fmt(v) for v in row))
    csv_path = outdir / f"{name}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    gp_path = outdir / f"{name}.gp"
    gp_path.write_text(_gnuplot_sidecar(name, cols))
    paths = [csv_path, gp_path]
    if json_mirror:
        payload = {
            "version": __version__,
            "figure": name,
            "snl_convention": convention.value,
            "axis_total": axis_total,
            **extra,
            "columns": cols,
            "rows": table,
            "errors": errors,
        }
        json_path = outdir / f"{name}.json"
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        paths.append(json_path)
    return paths


# --- three-way validation harness ---------------------------------------------

MEAN_RTOL = 1e-7
MEAN_ATOL = 1e-9
VAR_RTOL = 1e-6
VAR_ATOL = 1e-9
VIS_RTOL = 1e-10


@dataclass(frozen=True)
class ValidationReport:
    points: int
    worst: dict[str, float]
    worst_at: dict[str, InterferometerConfig]  # config of each worst deviation
    flagged: list[str]
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _rel_dev(a: float, b: float, atol: float) -> float:
    scale = max(abs(a), abs(b))
    if scale <= atol:
        return 0.0
    return abs(a - b) / scale


def random_oracle_configs(seed: int, points: int) -> list[InterferometerConfig]:
    """Seeded random grid inside the Fock-oracle regime."""
    rng = np.random.default_rng(seed)
    cfgs = []
    for _ in range(points):
        cfgs.append(
            InterferometerConfig(
                g1=float(rng.uniform(0.0, 0.3)),
                g2=float(rng.uniform(0.0, 0.3)),
                theta=float(rng.uniform(0.0, 2.0 * math.pi)),
                t_s=float(rng.uniform(0.1, 1.0)),
                t_i=float(rng.uniform(0.1, 1.0)),
                n_i=float(rng.uniform(0.0, 4.0)),
            )
        )
    return cfgs


def _validate_point(cfg: InterferometerConfig) -> tuple[dict[str, float], list[str]]:
    worst: dict[str, float] = {}
    flagged: list[str] = []
    cf_mean = closed_form.mean_signal(cfg)
    g_stats = gaussian.photon_stats(gaussian.run_interferometer(cfg))
    f_stats = fock.pipeline(cfg, cutoff=fock.suggested_cutoff(cfg))
    worst["mean_closed_form_vs_gaussian"] = _rel_dev(cf_mean, g_stats.mean, MEAN_ATOL)
    worst["mean_gaussian_vs_fock"] = _rel_dev(g_stats.mean, f_stats.mean, MEAN_ATOL)
    worst["mean_closed_form_vs_fock"] = _rel_dev(cf_mean, f_stats.mean, MEAN_ATOL)
    worst["variance_gaussian_vs_fock"] = _rel_dev(
        g_stats.variance, f_stats.variance, VAR_ATOL
    )
    try:
        v_cf = closed_form.visibility(cfg)
        v_num = metrics.visibility_numeric(cfg)
        worst["visibility_closed_form_vs_numeric"] = _rel_dev(v_cf, v_num, 1e-12)
    except UndefinedVisibilityError:
        flagged.append(
            f"undefined-visibility: g1={cfg.g1:.4f} g2={cfg.g2:.4f} (skipped)"
        )
    return worst, flagged


def validate(seed: int, points: int) -> ValidationReport:
    """Run the closed-form / Gaussian / Fock agreement suite on a seeded grid."""
    if not 0 <= points <= 10**4:
        raise DomainError(f"points must lie in [0, 1e4], got {points}")
    cfgs = random_oracle_configs(seed, points)
    worst: dict[str, float] = {}
    worst_at: dict[str, InterferometerConfig] = {}
    flagged: list[str] = []
    failures: list[str] = []
    results = [_validate_point(c) for c in cfgs]

    tol = {
        "mean_closed_form_vs_gaussian": MEAN_RTOL,
        "mean_gaussian_vs_fock": MEAN_RTOL,
        "mean_closed_form_vs_fock": MEAN_RTOL,
        "variance_gaussian_vs_fock": VAR_RTOL,
        "visibility_closed_form_vs_numeric": VIS_RTOL,
    }
    for cfg, (devs, flags) in zip(cfgs, results):
        flagged.extend(flags)
        for check, dev in devs.items():
            if dev > worst.get(check, 0.0):
                worst[check] = dev
                worst_at[check] = cfg
            if dev > tol[check]:
                failures.append(
                    f"{check}: deviation {dev:.3e} > {tol[check]:.0e} at "
                    f"g1={cfg.g1:.6f} g2={cfg.g2:.6f} theta={cfg.theta:.6f} "
                    f"t_s={cfg.t_s:.6f} t_i={cfg.t_i:.6f} n_i={cfg.n_i:.6f}"
                )
    return ValidationReport(
        points=points, worst=worst, worst_at=worst_at, flagged=flagged,
        failures=failures,
    )
