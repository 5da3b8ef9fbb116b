"""Prevalence estimation under prior probability shift.

The package exports each layer's public names: the functions and classes the
layer defines under a name with no leading underscore.  ``core`` and
``shift_test`` load with the package; every other layer loads on first use
(PEP 562), so a command line run imports only the layers its command calls.
Listing the package (``dir``, ``__all__``, ``import *``) or asking for a name
that no layer defines loads them all.  ``quantify.shift_test`` is the
function, which hides the submodule of the same name.
"""

import importlib
import inspect

from .shift_test import shift_test

__version__ = "0.1.0"

_LAYERS = ("core", "shift_test", "estimators", "regression", "rkhs", "simulate")


def _defines(layer, name: str) -> bool:
    value = vars(layer).get(name)
    return ((inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == layer.__name__ and not name.startswith("_"))


def __getattr__(name: str):
    """A layer, ``__all__``, or a public name read from its layer on every access.

    The value is not stored here, so anything that rebinds the name in its
    layer (such as a tracing wrapper) is seen, and nothing of it is left behind.
    """
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    layers = map(__getattr__, _LAYERS)  # lazy: a layer loads only when the search reaches it
    if name == "__all__":
        return sorted(n for layer in layers for n in vars(layer) if _defines(layer, n))
    if not name.startswith("_"):
        for layer in layers:
            if _defines(layer, name):
                return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__getattr__("__all__")})
