"""The package's public names: ``qmult.__all__`` lists exactly what
``from qmult import *`` binds, each name resolves, and the list is sorted."""

import qmult


def test_every_listed_name_resolves():
    missing = [name for name in qmult.__all__ if not hasattr(qmult, name)]
    assert missing == []


def test_all_is_sorted_without_duplicates():
    assert qmult.__all__ == sorted(set(qmult.__all__))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qmult import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qmult.__all__)
