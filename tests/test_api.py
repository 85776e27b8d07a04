"""The package surface: `h1flow.__all__` against what `h1flow` imports."""
import inspect

import h1flow


def test_every_export_resolves():
    missing = [name for name in h1flow.__all__ if not hasattr(h1flow, name)]
    assert missing == []


def test_no_export_repeats():
    assert len(h1flow.__all__) == len(set(h1flow.__all__))


def test_every_public_function_and_class_is_exported():
    public = {
        name for name, value in vars(h1flow).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert public - set(h1flow.__all__) == set()
