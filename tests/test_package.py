import importlib
import pkgutil

import stokeszeros


def test_every_all_entry_resolves():
    modules = [stokeszeros] + [
        importlib.import_module(f"stokeszeros.{info.name}")
        for info in pkgutil.iter_modules(stokeszeros.__path__)
    ]
    listed = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert len(listed) > len(stokeszeros.__all__)  # the submodules' lists were read
    missing = [f"{mod.__name__}.{name}" for mod, name in listed if not hasattr(mod, name)]
    assert missing == []
