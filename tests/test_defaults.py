"""No default value of a prooforge function or method is mutable state that
every call shares: a list, dict or set, or an instance of a dataclass that
is not frozen. Such a default is built once, when its function is defined,
so what one caller does to it the next caller sees."""

import dataclasses
import importlib
import inspect
import pkgutil

import prooforge


def modules():
    yield prooforge
    for info in pkgutil.iter_modules(prooforge.__path__, "prooforge."):
        yield importlib.import_module(info.name)


def functions(module):
    """Every function `module` defines, and every method of every class it
    defines (static and class methods included)."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)
                if inspect.isfunction(attr):
                    yield attr


def shared_mutable(value) -> bool:
    if isinstance(value, (list, dict, set)):
        return True
    return (
        dataclasses.is_dataclass(value)
        and not isinstance(value, type)
        and not type(value).__dataclass_params__.frozen
    )


def mutable_defaults() -> list[str]:
    found = []
    for module in modules():
        for function in functions(module):
            for parameter in inspect.signature(function).parameters.values():
                if shared_mutable(parameter.default):
                    found.append(f"{module.__name__}.{function.__qualname__}({parameter.name}=...)")
    return sorted(set(found))


def test_every_module_is_scanned():
    names = {module.__name__ for module in modules()}
    assert {"prooforge.cli", "prooforge.llm_gateway", "prooforge.proof_search"} <= names


def test_no_default_is_shared_mutable_state():
    assert mutable_defaults() == []


def test_the_scan_sees_each_kind_of_mutable_default():
    @dataclasses.dataclass
    class Loose:
        n: int = 0

    @dataclasses.dataclass(frozen=True)
    class Fixed:
        n: int = 0

    for value in ([], {}, set(), Loose()):
        assert shared_mutable(value)
    for value in ((), frozenset(), "", None, Fixed(), Loose):
        assert not shared_mutable(value)
