"""Every function the benchmark's span tracer wraps still exists.

``bench/spans.py`` names the functions it traces as strings, so a removed or
renamed one would otherwise fail only inside a traced benchmark run.  The
file is loaded as it is, and each name is resolved as ``Tracer.install``
resolves it: a module attribute, or a plain function in a class dictionary.
"""

import importlib
import inspect

from _oracles import load_bench


def test_every_traced_name_resolves():
    missing = []
    for mod_name, path, _ in load_bench("spans")._targets():
        owner = importlib.import_module(f"hompoisson.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            target = vars(cls).get(attr) if cls is not None else None
        else:
            target = getattr(owner, path, None)
        if not inspect.isfunction(target):
            missing.append(f"{mod_name}.{path}")
    assert not missing, f"traced names that are not functions of the package: {missing}"
