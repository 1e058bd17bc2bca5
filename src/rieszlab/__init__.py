"""Numerical toolkit for fully nonlinear degenerate-elliptic cone
subequations: membership algebra, Riesz characteristics and kernels,
radial one-variable theory, tangential flows and density estimation.

The root binds its modules lazily: each runs on the first read of one of
its attributes, so a command runs only the modules it reads."""


def _lazy(name):
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
    importlib.util.LazyLoader(spec.loader).exec_module(module)
    return module


flow, linalg, radial, riesz, subeq = map(_lazy, ("flow", "linalg", "radial", "riesz", "subeq"))
del _lazy

__version__ = "0.1.0"
