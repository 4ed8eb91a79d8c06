"""Every annotation in the package resolves.

The modules postpone their annotations (``from __future__ import
annotations``), so an annotation naming something its module does not
import fails only when it is resolved, as ``check_policy_params`` does
with ``typing.get_type_hints``.  This resolves the annotations of every
class and of every function and method defined in ``latentbandits``.
"""

import importlib
import inspect
import pkgutil
import typing
from functools import cached_property

import pytest

import latentbandits

MODULES = sorted(info.name for info in pkgutil.walk_packages(latentbandits.__path__, "latentbandits."))


def _annotated(module):
    """(qualified name, object) for each class, function and method that ``module`` defines."""
    pending = [value for value in vars(module).values() if getattr(value, "__module__", None) == module.__name__]
    while pending:
        value = pending.pop()
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            pending.extend(accessor for accessor in (value.fget, value.fset) if accessor is not None)
            continue
        elif isinstance(value, cached_property):
            value = value.func
        if inspect.isclass(value):
            pending.extend(member for member in vars(value).values()
                           if getattr(member, "__module__", module.__name__) == module.__name__)
        elif not inspect.isfunction(value):
            continue
        yield value.__qualname__, value


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    failures = []
    checked = 0
    for qualname, value in _annotated(module):
        checked += 1
        try:
            typing.get_type_hints(value)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            failures.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert checked
    assert not failures, failures
