"""Golden outputs: the exact bytes of a set of `su11` commands.

Covers four-metric sweeps on every axis, all three shot-noise conventions,
base transmissions with and without axis_total, every kind of per-row error,
a huge-seed sweep, two figure presets, and single-config commands with their
error lines.  Every file a command writes is compared byte for byte, and so
are its exit code, stdout and stderr.

The files under tests/data/golden are written by this module.  Regenerate
them, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py

The same bytes must come out on every CPU: test_outputs_do_not_depend_on_the_cpu
regenerates them under another BLAS kernel and without numpy's wider SIMD
loops.  tests/test_golden_accuracy.py holds every number to its exact value.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from su11sim import cli, sweep

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

FOUR = ["--metrics", "mean,visibility,dtheta2,db_vs_shotnoise"]

# sweeps write <name>.csv and <name>.json; all four metrics unless a case
# names its own
SWEEPS = {
    "axis_t_s2": ["--axis", "t_s2", "--lo", "0", "--hi", "1", "--steps", "13",
                  "--g1", "0.45", "--g2", "0.2", "--n_i", "3", "--ti2", "0.8",
                  "--snl_convention", "after_opa1"],
    "axis_t_i2": ["--axis", "t_i2", "--lo", "0.05", "--hi", "1", "--steps", "13",
                  "--g1", "0.3", "--g2", "0.5", "--ts2", "0.9",
                  "--snl_convention", "after_loss"],
    "axis_t_both2": ["--axis", "t_both2", "--lo", "0", "--hi", "1", "--steps", "13",
                     "--g1", "0.1", "--g2", "0.1", "--n_i", "50",
                     "--snl_convention", "pair_after_opa1"],
    "axis_theta": ["--axis", "theta", "--lo=-7", "--hi", "7", "--steps", "17",
                   "--g1", "0.7", "--g2", "0.4", "--ts2", "0.6", "--ti2", "0.7",
                   "--n_i", "10", "--snl_convention", "after_loss"],
    "axis_n_i": ["--axis", "n_i", "--lo", "0", "--hi", "1000", "--steps", "13",
                 "--g1", "0.2", "--g2", "0.25", "--ts2", "0.5",
                 "--snl_convention", "pair_after_opa1"],
    "axis_G1": ["--axis", "G1", "--lo", "0", "--hi", "1.5", "--steps", "13",
                "--g2", "0.3", "--ti2", "0.6", "--theta", "2.5"],
    "axis_G2": ["--axis", "G2", "--lo", "0", "--hi", "1.5", "--steps", "13",
                "--g1", "0.3", "--ts2", "0.7", "--n_i", "2",
                "--snl_convention", "after_loss"],
    "base_filter": ["--axis", "t_i2", "--lo", "0.01", "--hi", "1", "--steps", "17",
                    "--g1", "0.45", "--g2", "0.2", "--n_i", "10000",
                    "--base_ts2", "0.52", "--base_ti2", "0.42"],
    "base_axis_total": ["--axis", "t_s2", "--lo", "0.01", "--hi", "1", "--steps", "17",
                        "--g1", "0.45", "--g2", "0.2", "--base_ts2", "0.52",
                        "--base_ti2", "0.42", "--axis-total",
                        "--snl_convention", "pair_after_opa1"],
    "error_gain_overflow": ["--axis", "G1", "--lo", "0", "--hi", "400", "--steps", "9",
                            "--g2", "0.1"],
    "error_gain_overflow_fringe": ["--axis", "G1", "--lo", "0", "--hi", "400",
                                   "--steps", "9", "--g2", "0.1",
                                   "--metrics", "visibility,db_vs_shotnoise"],
    "error_zero_flux": ["--axis", "theta", "--lo", "0", "--hi", "1", "--steps", "5",
                        "--g1", "0", "--g2", "0"],
    "error_no_second_gain": ["--axis", "t_s2", "--lo", "0.1", "--hi", "1", "--steps", "5",
                             "--g1", "0.3", "--g2", "0", "--n_i", "2"],
    "error_unresolved_axis": ["--axis", "t_s2", "--lo", "0", "--hi", "1e-30",
                              "--steps", "5", "--g1", "0.1", "--g2", "0.1"],
    "error_unresolved_fixed": ["--axis", "theta", "--lo", "0.5", "--hi", "2.5",
                               "--steps", "5", "--g1", "0.1", "--g2", "0.1",
                               "--ts2", "1e-30"],
    "huge_seed": ["--axis", "n_i", "--lo", "1e150", "--hi", "1e300", "--steps", "6",
                  "--g1", "0.1", "--g2", "0.1"],
    # the benchmark's device over three sweep blocks, 2 * BLOCK_POINTS + 44
    # steps, so rows cross two block edges
    "block_edges": ["--metrics", "mean,visibility", "--axis", "t_s2", "--lo", "0.01",
                    "--hi", "1", "--steps", "556", "--g1", "0.45", "--g2", "0.2",
                    "--n_i", "10000", "--base_ts2", "0.52", "--base_ti2", "0.42"],
}

# figures write <figure>.csv, .gp and .json into the working directory
FIGURES = {
    "fig3b": ["fig3b", "--json"],
    "fig4a_axis_total": ["fig4a", "--json", "--axis-total"],
}

# single-config commands: only their exit code, stdout and stderr
COMMANDS = {
    "sensitivity_lossless": ["sensitivity", "--g1", "0.1", "--g2", "0.1"],
    "sensitivity_seeded_pair": ["sensitivity", "--g1", "0.1", "--g2", "0.1",
                                "--n_i", "50", "--ti2", "0.75",
                                "--snl_convention", "pair_after_opa1"],
    "sensitivity_after_loss": ["sensitivity", "--g1", "0.45", "--g2", "0.2",
                               "--ts2", "0.52", "--ti2", "0.42",
                               "--snl_convention", "after_loss"],
    "sensitivity_huge_seed": ["sensitivity", "--g1", "0.1", "--g2", "0.1",
                              "--n_i", "1e160"],
    "sensitivity_gain_overflow": ["sensitivity", "--g1", "400", "--g2", "0.1"],
    "sensitivity_unresolved": ["sensitivity", "--g1", "0.1", "--g2", "0.1",
                               "--ts2", "1e-30"],
    "sensitivity_no_second_gain": ["sensitivity", "--g1", "0.3", "--g2", "0"],
    "visibility_lossy": ["visibility", "--g1", "0.1", "--g2", "0.1", "--ts2", "0.5"],
    "visibility_seeded": ["visibility", "--g1", "0.45", "--g2", "0.2", "--ts2", "0.52",
                          "--ti2", "0.42", "--n_i", "10000"],
    "visibility_zero_flux": ["visibility", "--g1", "0", "--g2", "0"],
    "visibility_gain_overflow": ["visibility", "--g1", "400", "--g2", "0.1"],
    "validate_small": ["validate", "--seed", "3", "--points", "4"],
}


def _run(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one command, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def generate(outdir: Path) -> None:
    """Write every golden file into outdir (which must exist).  The commands
    run inside it, so the paths they print are relative."""
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for name, args in SWEEPS.items():
            argv = ["sweep", *FOUR, *args, "--out", f"{name}.csv", "--json", f"{name}.json"]
            Path(f"{name}.txt").write_text(_run(argv))
        for name, args in FIGURES.items():
            Path(f"{name}.txt").write_text(_run(["figure", *args, "--outdir", "."]))
        for name, argv in COMMANDS.items():
            Path(f"{name}.txt").write_text(_run(argv))
    finally:
        os.chdir(cwd)


def first_difference(expected: bytes, actual: bytes) -> str:
    """Where two texts first differ: the 1-based line number with the
    expected and the actual line, or which text ends first."""
    old, new = (text.decode(errors="replace").splitlines(keepends=True)
                for text in (expected, actual))
    for number, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            return f"line {number}: expected {a!r}, got {b!r}"
    shorter = "actual" if len(new) < len(old) else "expected"
    return f"the {shorter} text ends after line {min(len(old), len(new))}"


def test_outputs_match_golden_bytes(tmp_path):
    generate(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    changed = {name: first_difference((GOLDEN / name).read_bytes(),
                                      (tmp_path / name).read_bytes())
               for name in written
               if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()}
    assert not changed, "outputs differ from tests/data/golden:\n" + "\n".join(
        f"{name}: {where}" for name, where in changed.items())


def test_block_edges_spans_three_blocks():
    steps = int(SWEEPS["block_edges"][SWEEPS["block_edges"].index("--steps") + 1])
    assert 2 * sweep.BLOCK_POINTS < steps <= 3 * sweep.BLOCK_POINTS


def _cpu_features() -> tuple[dict[str, bool], list[str]]:
    """numpy's CPU features of this host, and the targets it dispatches to."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, list(getattr(umath, "__cpu_dispatch__", []))


# validate_small.txt is left out: its worst Fock deviations are rounding noise
# of the Fock oracle's BLAS and LAPACK calls (1e-15 to 1e-14), which differ
# between kernels.  The oracle is the heavy compute and keeps its BLAS.
CPU_EXEMPT = {"validate_small.txt"}


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_outputs_do_not_depend_on_the_cpu(tmp_path, core):
    """The golden bytes come out again in a child process that runs another
    OpenBLAS kernel with numpy's dispatched SIMD loops switched off, as on an
    older CPU: the Gaussian engine makes no BLAS call and takes cosh and sinh
    from libm.  OPENBLAS_CORETYPE picks an x86 kernel (Haswell needs AVX2;
    Prescott runs on every x86-64) and means nothing off x86, where OpenBLAS
    ignores it.  NPY_DISABLE_CPU_FEATURES names only the dispatch targets this
    host has, so a host without AVX-512 runs the test unchanged."""
    features, targets = _cpu_features()
    if core == "Haswell" and features.get("AVX2") is False:
        pytest.skip("the Haswell kernel needs AVX2")
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "NPY_DISABLE_CPU_FEATURES": " ".join(t for t in targets if features.get(t)),
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    code = "import sys, pathlib, test_golden; test_golden.generate(pathlib.Path(sys.argv[1]))"
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    changed = [name for name in written if name not in CPU_EXEMPT
               and (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert not changed, (f"outputs differ from tests/data/golden with OpenBLAS {core} and "
                         f"NPY_DISABLE_CPU_FEATURES={env['NPY_DISABLE_CPU_FEATURES']!r}: {changed}")


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nB\nc\n") == "line 2: expected 'b\\n', got 'B\\n'"
    assert first_difference(b"a\nb", b"a\nb\n") == "line 2: expected 'b', got 'b\\n'"
    assert first_difference(b"a\nb\n", b"a\n") == "the actual text ends after line 1"
    assert first_difference(b"a\n", b"a\nb\n") == "the expected text ends after line 1"


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    generate(GOLDEN)
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)
