import treeformer


def test_every_lazy_export_resolves():
    missing = [name for name in treeformer._EXPORTS if not hasattr(treeformer, name)]
    assert missing == []
    assert sorted(treeformer.__all__) == sorted([*treeformer._EXPORTS, "__version__"])
