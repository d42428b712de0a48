import heavytail_sre


def test_public_names_resolve():
    missing = [name for name in heavytail_sre.__all__ if not hasattr(heavytail_sre, name)]
    assert missing == []


def test_star_import():
    ns = {}
    exec("from heavytail_sre import *", ns)
    assert set(heavytail_sre.__all__) <= set(ns)
