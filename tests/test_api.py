"""The keyword options, caches and error classes of the library: each one
is used.

A parameter with a default that no caller sets is a configuration nobody
runs; the tolerances of the certificates are module constants instead.
This test lists every defaulted parameter of the functions defined in the
library's modules, so an option cannot come back unnoticed.  So does a
memo: the functions behind a functools cache are listed too.  Likewise an
error class that nothing raises is a failure mode nobody can meet.
"""

import importlib
import inspect
import re
from pathlib import Path

MODULES = ("polycore", "factor", "geometry", "numeric", "kernel", "cli",
           "jsonio", "gen")

# (module, function, parameter), each set by a caller in the library, the
# benchmark or the tests
OPTIONS = {
    ("polycore", "lift", "n"),
    ("geometry", "perturbation_search", "trials"),
    ("geometry", "perturbation_search", "seed"),
    ("cli", "_handle", "prefix"),
    ("cli", "main", "argv"),
}

# (module, function) of each function behind a functools cache, each hit on
# every benchmark workload that calls it; a lift's roots are kept only in
# g's analysis record
CACHES = {
    ("polycore", "_analysis"),
    ("factor", "_unit_grid"),
    ("factor", "_jacobian_layout"),
    ("cli", "build_parser"),
}


def _defaulted_parameters():
    found = set()
    for name in MODULES:
        mod = importlib.import_module(f"hkl.{name}")
        for attr, obj in vars(mod).items():
            fn = inspect.unwrap(obj) if callable(obj) else None
            if not (inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                continue
            for p in inspect.signature(fn).parameters.values():
                if p.default is not inspect.Parameter.empty:
                    found.add((name, attr, p.name))
    return found


def test_defaulted_parameters_are_the_listed_options():
    assert _defaulted_parameters() == OPTIONS


def _cached_functions():
    # module-level functions and the methods of the module's classes
    found = set()
    for name in MODULES:
        mod = importlib.import_module(f"hkl.{name}")
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            scopes = [(attr, obj)]
            if inspect.isclass(obj):
                scopes += [(f"{attr}.{a}", o) for a, o in vars(obj).items()]
            found |= {(name, a) for a, o in scopes if hasattr(o, "cache_info")}
    return found


def test_functools_caches_are_the_listed_caches():
    assert _cached_functions() == CACHES


def test_root_solver_takes_the_coefficients_alone():
    polycore = importlib.import_module("hkl.polycore")
    assert list(inspect.signature(polycore._solve).parameters) == ["c"]


def test_every_error_class_is_raised_in_the_library():
    errors = importlib.import_module("hkl.errors")
    concrete = {cls.__name__ for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.HklError)
                and not cls.__subclasses__()}
    source = "\n".join(path.read_text()
                       for path in Path(errors.__file__).parent.glob("*.py"))
    raised = set(re.findall(r"raise (\w+)\b", source))
    assert sorted(concrete - raised) == []
