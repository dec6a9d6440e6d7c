"""Kernel backend selection.

Imports the compiled kernels (orbipar._speedups) when the extension was
built, otherwise the pure-Python reference (orbipar._kernel_py).  Setting
ORBIPAR_PURE=1 in the environment forces the pure backend; set_backend()
switches at runtime (used by the benchmark and the parity tests).
vec_scale and vec_tri have no compiled counterpart and always run in Python.
"""

import os

from . import _kernel_py
from .fields import FieldCtx

try:
    from . import _speedups as _compiled
except ImportError:
    _compiled = None

_FORCED_PURE = os.environ.get("ORBIPAR_PURE", "") not in ("", "0")
_active = "pure" if (_compiled is None or _FORCED_PURE) else "compiled"


def available_backends():
    return ("pure", "compiled") if _compiled is not None else ("pure",)


def backend_name() -> str:
    return _active


def set_backend(name: str):
    global _active
    if name not in available_backends():
        raise ValueError(f"backend {name!r} not available (have {available_backends()})")
    _active = name


def _compiled_ctx(ctx: FieldCtx):
    cc = getattr(ctx, "_compiled_ctx", None)
    if cc is None:
        cc = _compiled.CompiledCtx(ctx.p, ctx.k, ctx.q, ctx.exp, ctx.log)
        ctx._compiled_ctx = cc
    return cc


def vec_mul(ctx, a, b, n):
    if _active == "compiled":
        return _compiled.vec_mul(_compiled_ctx(ctx), a, b, n)
    return _kernel_py.vec_mul(ctx, a, b, n)


def vec_inverse(ctx, a, n):
    if _active == "compiled":
        return _compiled.vec_inverse(_compiled_ctx(ctx), a, n)
    return _kernel_py.vec_inverse(ctx, a, n)


def vec_compose(ctx, f, g, n):
    if _active == "compiled":
        return _compiled.vec_compose(_compiled_ctx(ctx), f, g, n)
    return _kernel_py.vec_compose(ctx, f, g, n)


vec_scale = _kernel_py.vec_scale
vec_tri = _kernel_py.vec_tri
