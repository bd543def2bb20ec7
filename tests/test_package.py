import pageval


def test_star_import_and_public_names_resolve():
    # a name deleted from its module but left in __all__ breaks star imports
    namespace: dict = {}
    exec("from pageval import *", namespace)
    assert [n for n in pageval.__all__ if not hasattr(pageval, n)] == []
    assert set(pageval.__all__) <= namespace.keys()
