import ast
import dataclasses
import inspect
from pathlib import Path

import treeformer
from treeformer import numerics
from treeformer.model import ModelConfig

ROOT = Path(__file__).resolve().parent.parent


def test_every_lazy_export_resolves():
    missing = [name for name in treeformer._EXPORTS if not hasattr(treeformer, name)]
    assert missing == []
    assert sorted(treeformer.__all__) == sorted([*treeformer._EXPORTS, "__version__"])


def test_every_numerics_function_has_a_caller():
    """Each public function of ``numerics`` is used (called or passed, not
    just imported or defined) somewhere in ``src/`` or ``perfbench/``."""
    public = {
        name for name, fn in inspect.getmembers(numerics, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == numerics.__name__
    }
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(public - used) == []


def test_every_model_config_field_is_set_outside_the_model():
    """Each ``ModelConfig`` field is passed by keyword or named as a string key
    somewhere in ``src/`` outside ``model.py``, in ``perfbench/`` or in
    ``demos/``. A field that only ``model.py`` reads is a constant, not a
    setting."""
    paths = [p for p in (ROOT / "src").rglob("*.py") if p.name != "model.py"]
    paths += [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "demos").rglob("*.py")]
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword):
                named.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    fields = {field.name for field in dataclasses.fields(ModelConfig)}
    assert sorted(fields - named) == []
