import ast
import dataclasses
from pathlib import Path

import treeformer
from treeformer.model import ModelConfig

ROOT = Path(__file__).resolve().parent.parent


def test_every_lazy_export_resolves():
    missing = [name for name in treeformer._EXPORTS if not hasattr(treeformer, name)]
    assert missing == []
    assert sorted(treeformer.__all__) == sorted([*treeformer._EXPORTS, "__version__"])


def test_every_public_name_has_a_caller():
    """Each public top-level function and class of ``src/treeformer``, and each
    public method of a public class, is used (called, passed or read as a
    ``Name`` or ``Attribute``, not just defined or imported) somewhere in
    ``src/``, ``perfbench/`` or ``demos/``, or is a lazy export of the
    package. Each public function of ``numerics`` is used in that code itself."""
    public = set()
    for path in (ROOT / "src" / "treeformer").glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                public.add(f"{path.stem}.{top.name}")
                if isinstance(top, ast.ClassDef):
                    public |= {
                        f"{path.stem}.{top.name}.{item.name}" for item in top.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    }
    used = set()
    for path in (p for d in ("src", "perfbench", "demos") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name for name in public if name.rsplit(".", 1)[-1] not in used}
    assert sorted(unused - {f"{m}.{name}" for name, m in treeformer._EXPORTS.items()}) == []
    assert sorted(name for name in unused if name.startswith("numerics.")) == []


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
