"""The ``repro.locks`` export list, checked as a whole."""

import inspect
import typing

import pytest

import repro.locks


def _public_callables():
    """(label, function) for every exported function and every public
    method, property getter and ``__init__`` of every exported class."""
    for name in repro.locks.__all__:
        exported = getattr(repro.locks, name)
        if inspect.isfunction(exported):
            yield name, exported
        elif inspect.isclass(exported):
            yield name, exported
            for attr, member in vars(exported).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


PUBLIC_CALLABLES = dict(_public_callables())


@pytest.mark.parametrize("label", PUBLIC_CALLABLES)
def test_annotations_resolve(label):
    # Annotations are strings (``from __future__ import annotations``):
    # a name used in one but never imported only fails here.
    typing.get_type_hints(PUBLIC_CALLABLES[label])


def test_one_lock_manager_class():
    assert "StripedLockManager" not in repro.locks.__all__
    assert not hasattr(repro.locks, "StripedLockManager")
    assert not hasattr(repro.locks.LockManager(), "stats")
