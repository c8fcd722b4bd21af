"""Every name a ``repro`` package lists in ``__all__`` exists.

``from package import *`` resolves each ``__all__`` entry and raises
``AttributeError`` on one that names nothing, so a stale entry left behind
by a deletion fails here instead of in a user's import.
"""

import importlib
import pkgutil

import repro


def test_star_import_of_every_package_with_all():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + ".")
        if info.ispkg
    ]
    packages = [name for name in names if hasattr(importlib.import_module(name), "__all__")]
    assert "repro.atproto" in packages
    for name in packages:
        exec("from %s import *" % name, {})
