"""bench/tracer.py wraps su11sim functions by module attribute name (LAYERS);
`bench/run.py --trace 1` dies on a name that no longer exists, so every one
must."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACER}")


@pytest.mark.parametrize("layer", sorted(traced_layers()))
def test_every_traced_function_exists(layer):
    module = importlib.import_module(f"su11sim.{layer}")
    missing = [name for name in traced_layers()[layer]
               if not callable(getattr(module, name, None))]
    assert not missing, f"bench/tracer.py wraps su11sim.{layer}.{missing}"
