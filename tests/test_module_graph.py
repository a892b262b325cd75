import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sbo"


def test_no_module_imports_inside_a_function():
    # every import sits at module level, so the module graph stays acyclic
    # without lazy imports that hide a cycle
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside function bodies: {found}"


def _sbo_imports(name: str) -> set:
    """The sbo modules that src/sbo/<name>.py imports; the package imports
    its own modules relatively."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    return {node.module or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_problems_builds_reference_truth_and_metrics_only_reads_it():
    assert _sbo_imports("metrics") == {"errors"}
    assert "metrics" not in _sbo_imports("problems")
    assert _sbo_imports("problems") >= {"bilevel", "linalg"}  # the helper sees imports
