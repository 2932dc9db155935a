"""How close every golden number is to the exact value.

tests/test_golden.py pins the golden files byte for byte; this module pins
their accuracy.  Every metric cell that a golden sweep or figure CSV wrote
before its row's first error is compared with a 60-digit mpmath evaluation
of the signal output's closed form.

With real gains, transmissions and seed, every element keeps the signal's
reduced state phase-insensitive, so the signal output is a displaced thermal
state (Lachs, Phys. Rev. 138, B1012 (1965)).  With c = cos(theta):

    A(c)     = (sinh g2 cosh g1 t_i - sinh g1 cosh g2 t_s)^2 + beta t_i t_s (1 + c),
               beta = sinh(2 g1) sinh(2 g2) / 2
    N_th     = A + sinh^2 g2 (1 - t_i^2),    |alpha|^2 = n_i A
    <N_s>    = N_th + |alpha|^2
    Var N_s  = N_th (N_th + 1) + |alpha|^2 (2 N_th + 1)

The referee does its own arithmetic and imports nothing from closed_form,
gaussian or metrics.  Only each row's device comes from the program: a sweep
row's through sweep.spec_from_config and sweep.config_at, a figure row's
through the figure's preset specs.  The program's conventions apply: the
working point of the optimum is clamped to [pi/514, pi - pi/514], the float
bounds the program uses, and the shot-noise level is 1/N_s (or 1/(2 N_s) for
pair_after_opa1) of the signal mean after OPA 1 (or after the loss).

Run as a script, it prints the worst deviation of each kind of cell.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import mpmath

from su11sim import sweep

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
FIGURES = {"fig3b.csv": "fig3b", "fig4a.csv": "fig4a"}
DIGITS = 60
# the working-point clamp of the optimum, as floats
THETA_LO = math.pi / 514
THETA_HI = math.pi - math.pi / 514

EPS = 2.0**-52
# The largest deviation each kind of cell may have, set from the golden files
# written by the Gaussian engine of stacked 4x4 matrix products: the worst
# deviation there, times a margin of four.
#   mean        relative 1.04e-14 (error_unresolved_fixed, theta = 1)
#   visibility  relative 3.95e-15 (fig4a, v_spontaneous at 0.02)
# dtheta2 and its dB are read from Var(c) = v0 + v1 c + v2 c^2 at the optimum,
# which cancels where Var is small against its terms: at axis_t_both2,
# t_both2 = 1 (the optimum at the theta clamp) Var = 1.9e-5 against terms of
# about 1, and dtheta2 is off by 9.23e-12 relative, the dB by 4.01e-11.  Their
# bounds therefore scale with the amplification
# kappa = (|v0| + |v1 c| + |v2 c^2|) / Var(c), which is about 1 elsewhere:
#   dtheta2     relative 16.1 EPS kappa (base_axis_total, t_s2 = 0.01)
#   dB          absolute 6.77 EPS (10 kappa / ln 10 + |dB|) (axis_t_i2, t_i2 = 0.367)
BOUNDS = {"mean": 4.2e-14, "visibility": 1.6e-14}
DTHETA2_EPS = 65
DB_EPS = 28
# A cell whose exact value is 0 (no gain, or no second gain) is held to an
# absolute bound: a mean of (tr V - 1)/2 cancels against the vacuum's 1/2.
# Worst: -5.55e-17 (error_zero_flux, theta = 0.25), times four.
ZERO_ATOL = 2.3e-16
# A row whose fringe is unresolved (amplitude at or below 1e-9 of the mean)
# still writes its visibility, computed before the check failed.  That cell is
# rounding noise on a fringe amplitude of about 1 ulp of the mean, so it is
# held to an absolute bound: 5.48e-15 is written where the exact value is
# 1.41e-15 (error_unresolved_axis), and the bound is that 4.06e-15 times four.
UNRESOLVED = "interference term not resolved"
UNRESOLVED_VISIBILITY_ATOL = 1.7e-14


def _ratio(a, b):
    """a / b, infinite where b is 0 (a metric that no row writes)."""
    return a / b if b else mpmath.inf


def _exact(cfg, convention: str) -> dict[str, mpmath.mpf]:
    """The four metrics of one device, at 60 digits: the mean at its own
    theta, the visibility, and dtheta2 and its dB at the clamped optimum;
    and kappa, the amplification of rounding in Var(c) there."""
    g1, g2, theta, t_s, t_i, n_i = map(mpmath.mpf, (cfg.g1, cfg.g2, cfg.theta,
                                                   cfg.t_s, cfg.t_i, cfg.n_i))
    ch1, sh1, ch2, sh2 = mpmath.cosh(g1), mpmath.sinh(g1), mpmath.cosh(g2), mpmath.sinh(g2)
    beta = 2 * sh1 * ch1 * sh2 * ch2

    def moments(c):
        a = (sh2 * ch1 * t_i - sh1 * ch2 * t_s) ** 2 + beta * t_i * t_s * (1 + c)
        n_th, alpha2 = a + sh2**2 * (1 - t_i**2), n_i * a
        return n_th + alpha2, n_th * (n_th + 1) + alpha2 * (2 * n_th + 1)

    m1 = (n_i + 1) * beta * t_i * t_s
    out = {"mean": moments(mpmath.cos(theta))[0], "visibility": _ratio(m1, moments(0)[0])}
    # Var(c) = v0 + v1 c + v2 c^2; Var/(1 - c^2) is stationary where
    # v1 c^2 + 2 (v0 + v2) c + v1 = 0, at the root in [-1, 1]
    v_minus, v0, v_plus = (moments(c)[1] for c in (-1, 0, 1))
    v1, v2 = (v_plus - v_minus) / 2, (v_plus + v_minus) / 2 - v0
    root = -v1 / (v0 + v2 + mpmath.sqrt((v0 + v2) ** 2 - v1 * v1)) if v1 else mpmath.mpf(0)
    theta_opt = min(max(mpmath.acos(root), mpmath.mpf(THETA_LO)), mpmath.mpf(THETA_HI))
    c = mpmath.cos(theta_opt)
    var = moments(c)[1]
    n_s = (n_i + 1) * sh1**2 * (t_s**2 if convention == "after_loss" else 1)
    snl = _ratio(1, 2 * n_s if convention == "pair_after_opa1" else n_s)
    out["dtheta2"] = _ratio(var, (m1 * mpmath.sin(theta_opt)) ** 2)
    out["db_vs_shotnoise"] = 10 * mpmath.log10(snl / out["dtheta2"])
    out["kappa"] = _ratio(abs(v0) + abs(v1 * c) + abs(v2 * c * c), var)
    return out


def _read(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """The '# ' header lines after the version line, and the rows."""
    lines = path.read_text().splitlines()
    header = [line[2:] for line in lines[1:] if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("#")]
    return header, list(csv.DictReader(body))


def _sweep_cells(path: Path):
    """(row label, metric, written text, device, convention, row error) of
    every written metric cell of one golden sweep CSV."""
    header, rows = _read(path)
    spec = sweep.spec_from_config(sweep.parse_config_text("\n".join(header)))
    for row in rows:
        x = float(row[spec.axis])
        for metric in spec.metrics:
            if row[metric]:
                yield (f"{spec.axis}={row[spec.axis]}", metric, row[metric],
                       sweep.config_at(spec, x), spec.snl_convention.value, row["error"])


def _figure_cells(path: Path, figure: str):
    """The same for one golden figure CSV, each column its preset's sweep."""
    header, rows = _read(path)
    meta = dict(line.split(" = ", 1) for line in header if " = " in line)
    series, _ = sweep._figure_series(figure, sweep.ShotNoiseConvention(meta["snl_convention"]),
                                     sweep.boolean(meta["axis_total"]))
    for row in rows:
        x = float(row["transmission"])
        for label, spec in series.items():
            if row[label]:
                yield (f"{label}@{row['transmission']}", spec.metrics[0], row[label],
                       sweep.config_at(spec, x), spec.snl_convention.value, "")


def golden_cells():
    """Every written metric cell of every golden sweep and figure CSV."""
    for path in sorted(GOLDEN.glob("*.csv")):
        if path.name in FIGURES:
            cells = _figure_cells(path, FIGURES[path.name])
        else:
            cells = _sweep_cells(path)
        for label, metric, text, cfg, convention, error in cells:
            yield f"{path.name} {label}", metric, float(text), cfg, convention, error


def deviations() -> list[tuple[str, str, float, float]]:
    """(cell, kind, deviation, bound) of every written metric cell."""
    with mpmath.workdps(DIGITS):
        return list(_deviations())


def _deviations():
    exact = {}
    for name, metric, value, cfg, convention, error in golden_cells():
        key = (cfg, convention)
        if key not in exact:
            exact[key] = _exact(cfg, convention)
        e = exact[key][metric]
        if metric == "visibility" and error.startswith(UNRESOLVED):
            kind, dev, bound = "unresolved visibility", abs(value - e), UNRESOLVED_VISIBILITY_ATOL
        elif metric == "dtheta2":
            kind, dev, bound = metric, abs((value - e) / e), DTHETA2_EPS * EPS * exact[key]["kappa"]
        elif metric == "db_vs_shotnoise":
            amplified = 10 / mpmath.log(10) * exact[key]["kappa"] + abs(e)
            kind, dev, bound = metric, abs(value - e), DB_EPS * EPS * amplified
        elif e == 0:
            kind, dev, bound = f"{metric} of exact 0", abs(value), ZERO_ATOL
        else:
            kind, dev, bound = metric, abs((value - e) / e), BOUNDS[metric]
        yield name, kind, float(dev), float(bound)


def test_every_golden_cell_is_within_its_bound_of_the_exact_value():
    cells = list(deviations())
    assert len(cells) > 1000
    kinds = {kind for _, kind, _, _ in cells}
    assert {"mean", "visibility", "dtheta2", "db_vs_shotnoise",
            "unresolved visibility"} <= kinds
    outside = [f"{name} {kind}: {dev:.3g} > {bound:.3g}"
               for name, kind, dev, bound in cells if not dev <= bound]
    assert not outside, "golden cells outside their bound:\n" + "\n".join(outside)


if __name__ == "__main__":
    worst: dict[str, tuple[float, str]] = {}
    used: dict[str, tuple[float, str]] = {}
    for name, kind, dev, bound in deviations():
        if dev >= worst.get(kind, (-1.0, ""))[0]:
            worst[kind] = (dev, name)
        if bound and dev / bound >= used.get(kind, (-1.0, ""))[0]:
            used[kind] = (dev / bound, name)
    for kind, (dev, name) in sorted(worst.items()):
        share, where = used.get(kind, (0.0, ""))
        print(f"{kind:22s} worst {dev:.3g} ({name}); at most {share:.2f} of the bound ({where})")
