import spintensor


def test_every_public_name_resolves():
    # each exported name is an attribute of the package, and a star
    # import binds exactly the export list in a fresh namespace
    missing = [name for name in spintensor.__all__ if not hasattr(spintensor, name)]
    assert not missing
    namespace = {}
    exec("from spintensor import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == set(spintensor.__all__)
