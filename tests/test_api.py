"""Guards on the package surface.

Library code holds no runtime asserts, the top-level __all__ is exactly
the set of names the benchmark workloads call as `qd.<name>`, every
function the benchmark tracer wraps still exists, and every module-level
function and class is named by some caller.
"""

import ast
import importlib
import importlib.util
import pathlib
import re

import qdiscrim

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdiscrim"
PERFBENCH = ROOT / "perfbench"


def test_library_code_has_no_asserts():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_all_is_exactly_what_callers_use():
    used = {name for path in PERFBENCH.glob("*.py")
            for name in re.findall(r"\bqd\.(\w+)", path.read_text(encoding="utf-8"))}
    assert used
    assert len(qdiscrim.__all__) == len(set(qdiscrim.__all__))
    assert set(qdiscrim.__all__) == used
    for name in qdiscrim.__all__:
        getattr(qdiscrim, name)


def test_traced_names_exist():
    # The tracer looks these up with getattr, so a deleted name breaks a traced run.
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module_name}.{name}"
               for module_name, names in tracing.TRACED.items()
               for name in names
               if not hasattr(importlib.import_module(f"qdiscrim.{module_name}"), name)]
    assert missing == []


def test_every_definition_has_a_caller():
    # A name counts as used when it appears outside its own definition in
    # the library, the benchmark or pyproject.toml (the console script).
    # The re-exports in __init__.py (its imports and __all__) do not count.
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    defined = [(path.name, node.name)
               for path, text in sources.items()
               for node in ast.parse(text).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert defined
    corpus = [text for path, text in sources.items() if path.name != "__init__.py"]
    corpus += [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    corpus.append((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    unused = [f"{module}:{name}" for module, name in defined
              if sum(len(re.findall(rf"\b{name}\b", text)) for text in corpus) < 2]
    assert unused == []
