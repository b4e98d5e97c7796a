"""Exact R-divisor calculus on complete toric varieties and Hirzebruch surfaces.

The public names below are loaded on first use (PEP 562), so `import rdiv`
loads no submodule and a cold `rdiv <subcommand>` loads only the layers that
subcommand runs on: a fan query never loads the surface model, and a
surface query loads it on top of the toric layers it reads its numbers off.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "RdivError",
    "Scalar",
    "parse_scalar",
    "sqrt",
    "HPolytope",
    "lp_solve",
    "Fan",
    "TDivisor",
    "preset_fan",
    "SDivisor",
    "SurfaceModel",
    "__version__",
]

# the submodule that defines each public name
_ORIGIN = {
    "RdivError": "errors",
    "Scalar": "scalars",
    "parse_scalar": "scalars",
    "sqrt": "scalars",
    "HPolytope": "polyhedra",
    "lp_solve": "polyhedra",
    "Fan": "toric",
    "TDivisor": "toric",
    "preset_fan": "toric",
    "SDivisor": "surface",
    "SurfaceModel": "surface",
}


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module 'rdiv' has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
