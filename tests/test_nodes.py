"""Value semantics of every class built by `ast.node`, checked against a
frozen dataclass with the same fields."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys

import pytest

from rula import analyzer, ast, codegen, ir, parser


def _built() -> list[type]:
    """Every class `ast.node` built, as its module names it: a dataclass
    with slots replaces the class it was made from, which lingers as a
    subclass until it is collected."""
    classes, stack = [], [ast.Value]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "__dataclass_fields__" in vars(cls) and getattr(sys.modules[cls.__module__], cls.__name__) is cls:
            classes.append(cls)
    return classes


def _twin(cls: type) -> type:
    """A plain frozen dataclass with the fields of `cls`: the reference."""
    spec = [
        (f.name, f.type, dataclasses.field(compare=f.compare, repr=f.repr, kw_only=f.kw_only))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def test_every_node_is_a_frozen_value():
    classes = _built()
    modules = {cls.__module__ for cls in classes}
    assert modules == {m.__name__ for m in (analyzer, ast, codegen, ir, parser)}
    for cls in classes:
        every = dataclasses.fields(cls)
        # field i holds ("v", i); a node's twin differs in every field not compared
        values = {f.name: ("v", i) for i, f in enumerate(every)}
        other = {f.name: values[f.name] if f.compare else ("w", i) for i, f in enumerate(every)}
        one, two = cls(**values), cls(**other)
        reference = _twin(cls)(**values)
        compared = tuple(getattr(one, f.name) for f in every if f.compare)
        assert one == two and hash(one) == hash(two), cls
        assert hash(one) == hash(compared) == hash(reference), cls
        assert repr(one) == repr(reference), cls
        assert one != reference, cls  # no value equals one of another class
        assert not hasattr(one, "__dict__"), cls
        for f in every:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(one, f.name, values[f.name])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(one, f.name)
            changed = dataclasses.replace(one, **{f.name: ("x",)})
            assert getattr(changed, f.name) == ("x",) and changed.__class__ is cls, cls
            assert (changed == one) is not f.compare, cls
        for made in (copy.copy(one), copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
            assert made.__class__ is cls and made == one, cls
            assert [getattr(made, f.name) for f in every] == list(values.values()), cls
