"""Every function the perfbench tracer names still exists in orbipar.

The tracer resolves its names only under `--trace 1`, so a refactor that
drops or renames a traced function would otherwise break nothing else.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.traced_names():
        layer, qual = name.split(".", 1)
        owner = importlib.import_module(f"orbipar.{layer}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(name)
    assert not missing
    assert tracer.traced_names()
    from orbipar.fields import FieldCtx
    assert all(op in vars(FieldCtx) for op in tracer.CTX_OPS)
