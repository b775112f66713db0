"""The package's public names."""

import bicox


def test_every_public_name_resolves():
    """Each name in ``bicox.__all__`` is an attribute of the package, and a
    star import, which fails on a stale name, binds every one of them."""
    for name in bicox.__all__:
        getattr(bicox, name)
    namespace = {}
    exec("from bicox import *", namespace)
    assert set(bicox.__all__) <= namespace.keys()
