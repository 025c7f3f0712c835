"""Design checks that read the package source instead of running it."""

import ast
from pathlib import Path

import regime_xai

SRC = Path(regime_xai.__file__).resolve().parent


def test_every_public_definition_is_used_by_the_package():
    # A public top-level function or class that no other code in the package
    # refers to is reached only by tests: delete it or make the package use it.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses = []  # (file, line, name) of every name reference and import
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                uses.extend((name, node.lineno, alias.name) for alias in node.names)

    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own_lines = range(node.lineno, node.end_lineno + 1)
            if not any(
                used == node.name and not (file == name and line in own_lines)
                for file, line, used in uses
            ):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read_by_the_package():
    # A field that nothing outside its own class reads is kept only for tests:
    # delete it, or make the package use it.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    reads = [
        (name, node.lineno, node.attr)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]

    unread = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
                continue
            own_lines = range(cls.lineno, cls.end_lineno + 1)
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                field = stmt.target.id
                if not any(
                    attr == field and not (file == name and line in own_lines)
                    for file, line, attr in reads
                ):
                    unread.append(f"{cls.name}.{field}")
    assert unread == []


def test_no_setting_is_read_from_the_environment():
    # Settings come from the config file and the command line only, so the
    # config echo in a run's manifest describes the run completely.
    field_of = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, field_of.get(type(node), ""), None)
            if name in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno} {name}")
    assert reads == []


def _imports_outside_timeseries(module: str) -> list[str]:
    """file:line of each import of module, or of one of its submodules, in
    any package file but timeseries.py."""
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if path.name != "timeseries.py" and any(m.split(".")[0] == module for m in modules):
                imports.append(f"{path.name}:{node.lineno}")
    return imports


def test_only_timeseries_converts_time():
    # Epoch seconds are the one time unit once text is parsed, and
    # timeseries.py holds the only conversions from and to text.
    assert _imports_outside_timeseries("datetime") == []


def test_only_timeseries_reads_and_writes_csv():
    # timeseries.load_table and timeseries.write_csv are the one CSV reader
    # and the one CSV writer, so quoting and number formats cannot drift apart.
    assert _imports_outside_timeseries("csv") == []
