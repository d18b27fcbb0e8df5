"""The top-level namespace is exactly the union of the module export lists."""

import importlib

import infoeq

MODULES = ("relations", "timeseries", "macro", "ensemble", "fitting", "paramfile", "data", "errors")


def module_names():
    return [name for module in MODULES for name in importlib.import_module(f"infoeq.{module}").__all__]


def test_all_is_the_union_of_the_module_lists():
    assert set(infoeq.__all__) == {"__version__", *module_names()}


def test_no_name_is_exported_twice():
    assert len(infoeq.__all__) == len(set(infoeq.__all__))
    assert len(module_names()) == len(set(module_names()))


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        mod = importlib.import_module(f"infoeq.{module}")
        for name in mod.__all__:
            assert getattr(infoeq, name) is getattr(mod, name)
    assert isinstance(infoeq.__version__, str)

