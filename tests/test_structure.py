"""Design checks that read the package source instead of running it."""

import ast
import dataclasses
import inspect
import re
import textwrap
import typing
from pathlib import Path

import regime_xai
from regime_xai import config

SRC = Path(regime_xai.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _benchmark_trees() -> list[ast.Module]:
    """The benchmark's code that reaches into the package: the tracer, which
    wraps package functions and reads their results, and the *_CODE programs
    that perfbench/run.py hands to its child processes."""
    run = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    programs = [
        ast.parse(node.value.value)
        for node in run.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and any(isinstance(t, ast.Name) and t.id.endswith("_CODE") for t in node.targets)
    ]
    return [ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8")), *programs]


def test_every_public_definition_is_used_by_the_package():
    # A public top-level function or class that no other code in the package
    # refers to is reached only by tests: delete it or make the package use it.
    trees = _package_trees()
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
    trees = _package_trees()
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


def _public_functions(tree: ast.Module):
    """(function, whether it is a method) for each public top-level function
    and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    yield stmt, True


def _relies_on_default(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether call leaves the parameter at position (None: keyword-only) to
    its default. A call that unpacks *args or **kwargs may leave it."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    passed = position is not None and position < len(call.args)
    return not passed and all(k.arg != name for k in call.keywords)


def test_every_default_is_relied_on_by_a_caller():
    # A default that every call in the package and the benchmark overrides is
    # kept only for tests: delete it, and let the tests pass the value.
    trees = _package_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *_benchmark_trees()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)

    unused = []
    for name, tree in trees.items():
        for fn, is_method in _public_functions(tree):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            positional = [*fn.args.posonlyargs, *fn.args.args][1 if is_method and not static else 0:]
            defaulted = [
                (i, arg.arg) for i, arg in enumerate(positional) if i >= len(positional) - len(fn.args.defaults)
            ] + [(None, arg.arg) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for position, param in defaulted:
                if not any(_relies_on_default(c, position, param) for c in calls.get(fn.name, [])):
                    unused.append(f"{name}:{fn.lineno} {fn.name}({param}=...)")
    assert unused == []


def test_every_method_and_property_is_used_outside_its_class():
    # A public method or property that nothing outside its own class calls or
    # reads, in the package or the benchmark, is kept only for tests.
    trees = _package_trees()
    uses = [
        (name, node.lineno, getattr(node, "attr", None) or getattr(node, "id", None))
        for name, tree in [*trees.items(), *(("<benchmark>", t) for t in _benchmark_trees())]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    ]

    unused = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            own_lines = range(cls.lineno, cls.end_lineno + 1)
            for stmt in cls.body:
                if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                    continue
                if not any(
                    used == stmt.name and not (file == name and line in own_lines)
                    for file, line, used in uses
                ):
                    unused.append(f"{name}:{stmt.lineno} {cls.name}.{stmt.name}")
    assert unused == []


def _uses_of(names: set[str], skip: str = "") -> list[str]:
    """file:line name of each attribute, name or imported name in names, in
    every package file but skip."""
    field_of = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
    uses = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, field_of.get(type(node), ""), None)
            if name in names:
                uses.append(f"{path.name}:{node.lineno} {name}")
    return uses


def test_no_setting_is_read_from_the_environment():
    # Settings come from the config file and the command line only, so the
    # config record in a run's manifest describes the run completely.
    assert _uses_of({"environ", "getenv"}) == []


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
    # timeseries.py holds the only conversions from and to text, so a stamp
    # has one grammar wherever it is read or written.
    assert _imports_outside_timeseries("datetime") == []
    assert _imports_outside_timeseries("time") == []
    assert _uses_of({"datetime64", "datetime_as_string", "strptime", "strftime"}, skip="timeseries.py") == []


def test_only_timeseries_reads_and_writes_csv():
    # timeseries.load_table and timeseries.write_csv are the one CSV reader
    # and the one CSV writer, so quoting and number formats cannot drift apart.
    assert _imports_outside_timeseries("csv") == []


def test_only_mlp_reads_a_nets_parameters():
    # mlp.py holds the one forward pass; a module that reads an MlpNet's
    # weights or biases is computing a second one beside it
    reads = [
        f"{file}:{node.lineno} .{node.attr}"
        for file, tree in _package_trees().items()
        if file != "mlp.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in {"weights", "biases"}
    ]
    assert reads == []


def test_every_import_is_used():
    # No linter runs on this package, so a deletion that leaves an import
    # behind is caught here. A name counts as used when the module refers to
    # it anywhere outside its import statements.
    unused = []
    for name, tree in _package_trees().items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {alias}" for alias, line in imported.items() if alias not in used]
    assert unused == []


MODEL_FUNCTIONS = {"fit_gbt", "fit_mlp", "predict_gbt", "predict_mlp"}
MODEL_CLASSES = {"TreeEnsemble", "MlpNet"}


def _chooses_model_kind(node: ast.AST) -> bool:
    """Whether node names a model kind's fit or predict function, or tests
    a value's type against a model class."""
    if isinstance(node, ast.Name):
        return node.id in MODEL_FUNCTIONS
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        and any(isinstance(n, ast.Name) and n.id in MODEL_CLASSES for n in ast.walk(node.args[1]))
    )


def test_the_model_kind_is_chosen_in_two_places():
    # experiment.run_window picks how a window's model is fitted and
    # predicted, and shap.explain_dataset picks the engine and the predict
    # function it explains; no other code branches on the kind of model.
    # gbt.py and mlp.py define the functions, and the verify checks in cli.py
    # build models of a known kind.
    allowed = {("experiment.py", "run_window"), ("shap.py", "explain_dataset")}
    found = []
    for name, tree in _package_trees().items():
        if name in ("gbt.py", "mlp.py"):
            continue
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            if (name, owner) in allowed or name == "cli.py" and owner.startswith("_check_"):
                continue
            found += [f"{name}:{n.lineno} in {owner}" for n in ast.walk(top) if _chooses_model_kind(n)]
    assert found == []


def _is_scratch(value: ast.AST | None) -> bool:
    """Whether value builds an empty container or an array to fill later."""
    if isinstance(value, (ast.List, ast.Dict)):
        return not (value.elts if isinstance(value, ast.List) else value.keys)
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in ("dict", "list") and not value.args and not value.keywords
    return (
        isinstance(func, ast.Attribute) and func.attr in ("empty", "zeros")
        and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
    )


def _is_cache(decorator: ast.expr) -> bool:
    """Whether decorator is functools.lru_cache or functools.cache, called or
    not, by its bare name or through the module."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in ("lru_cache", "cache")


def test_no_module_level_scratch_state():
    # Buffers and caches belong to the call that made them (predict_mlp's
    # work dict lives for one explain_dataset call), so nothing one caller
    # leaves behind can reach the next: no global statement, no module that
    # starts out holding an empty container or an unfilled array, and no
    # module-level function whose results a functools cache keeps.
    found = []
    for name, tree in _package_trees().items():
        found += [f"{name}:{n.lineno} global" for n in ast.walk(tree) if isinstance(n, ast.Global)]
        found += [
            f"{name}:{node.lineno} scratch"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_scratch(node.value)
        ]
        found += [
            f"{name}:{node.lineno} cache"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_cache, node.decorator_list))
        ]
    assert found == []


def _built_by_dataclass_from() -> set[type]:
    """Each dataclass that config.py passes to _dataclass_from, and each one
    a field of those declares, which _typed builds through it in turn."""
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    todo = [
        getattr(config, node.args[1].id, None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_dataclass_from"
        and isinstance(node.args[1], ast.Name)
    ]
    built = set()
    while todo:
        cls = todo.pop()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls not in built:
            built.add(cls)
            for hint in typing.get_type_hints(cls).values():
                todo += [hint, *typing.get_args(hint)]
    return built


def test_every_config_default_is_set_by_a_caller():
    # A config field with a default that no caller outside the tests sets has
    # one value in use, so it is a constant, not a setting. The callers are
    # the benchmark's workload configs, the config synth writes and the
    # package's own constructor calls, as verify's GbtParams(learning_rate=0.3).
    # A field counts as set even at its default: residual_loads[].ror_lag_days
    # has one value in use, 7, but csv-export's config sets it, and removing
    # the field would refuse the benchmark's own config as an unknown key.
    built = _built_by_dataclass_from()
    synth = next(node for node in _package_trees()["cli.py"].body if getattr(node, "name", None) == "cmd_synth")
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    keys = {
        key.value
        for tree in (workloads, synth)
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant)
    }
    keys |= {
        keyword.arg
        for tree in _package_trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {cls.__name__ for cls in built}
        for keyword in node.keywords
    }
    unset = sorted(
        f"{cls.__name__}.{f.name}"
        for cls in built
        for f in dataclasses.fields(cls)
        if (f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)
        and f.name not in keys
    )
    assert unset == []


def _value_error_messages(fn, bound: dict | None = None) -> list[str]:
    """The leading text of each ValueError message fn raises, itself or
    through a function of its own module that it calls, where a message that
    begins with a parameter reads the constant the call passes for it."""
    bound = bound or {}
    module = vars(inspect.getmodule(fn))
    messages = []
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ValueError":
            first = exc.args[0].values[0] if isinstance(exc.args[0], ast.JoinedStr) else exc.args[0]
            if isinstance(first, ast.FormattedValue) and isinstance(first.value, ast.Name):
                first = ast.Constant(bound.get(first.value.id, ""))
            messages.append(first.value if isinstance(first, ast.Constant) else "")
        callee = module.get(getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None
        if inspect.isfunction(callee) and callee.__module__ == fn.__module__:
            params = inspect.signature(callee).parameters
            consts = {p: a.value for p, a in zip(params, node.args) if isinstance(a, ast.Constant)}
            messages += _value_error_messages(callee, consts)
    return messages


def test_config_file_is_read_by_one_reader():
    # _dataclass_from builds RunConfig and, through _typed, every section and
    # period of it, so only these two check keys, require them or read a
    # timestamp, and each config error has one form.
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    readers = {"_check_keys", "_require", "parse_timestamp"}
    found = [
        f"config.py:{node.lineno} {node.func.id} in {getattr(top, 'name', '<module>')}"
        for top in tree.body
        if getattr(top, "name", None) not in ("_typed", "_dataclass_from")
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in readers
    ]
    assert found == []


def test_derived_columns_are_added_by_one_helper():
    # residual loads and mixed prices differ only in their sources and their
    # formula: one helper finds the input that holds the sources and adds the
    # column, so only it calls owning_table or with_column in cli.py
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    callers = {
        (getattr(top, "name", "<module>"), node.func.id)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("owning_table", "with_column")
    }
    assert callers == {("_derive_column", "owning_table"), ("_derive_column", "with_column")}


def _calls_in(tree: ast.Module) -> dict[str, set[str]]:
    """The names called, as a plain name or an attribute, under each top-level
    function or class of tree, and under "<module>" by the other statements."""
    calls: dict[str, set[str]] = {}
    for top in tree.body:
        called = calls.setdefault(getattr(top, "name", "<module>"), set())
        called.update(
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
        )
    return calls


def test_every_verify_check_calls_an_engine():
    # verify checks the explanation engines on the analyst's numeric stack;
    # invariants of the features and the split are acceptance criteria, not checks
    from regime_xai.cli import VERIFY_CHECKS

    calls = _calls_in(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
    engines = {"explain_dataset", "_exact", "exact_shap", "grad_check"}
    assert [name for name, check in VERIFY_CHECKS if not calls[check.__name__] & engines] == []


def test_only_write_manifest_writes_json():
    # every JSON file the package writes goes through experiment.write_manifest,
    # so each has the same key order, indentation and final newline
    writers = [
        f"{file} {name}"
        for file, tree in _package_trees().items()
        for name, called in _calls_in(tree).items()
        if "dump" in called
    ]
    assert writers == ["experiment.py write_manifest"]


def test_only_subset_weights_counts_coalitions():
    # the Shapley weights come from one table, shap._subset_weights; a second
    # factorial or binomial sum would be a second table that can drift from it
    callers = [
        f"{file} {name}"
        for file, tree in _package_trees().items()
        for name, called in _calls_in(tree).items()
        if called & {"factorial", "comb"}
    ]
    assert callers == ["shap.py _subset_weights"]


def test_every_range_error_of_a_config_section_begins_with_its_field():
    # _dataclass_from reports a range error as path.message, so each message
    # must begin with the name of the field it is about, as in
    # windows.n_windows must be >= 1
    # At the root, RunConfig, the message is kept as it is, so it names the
    # field itself, as in inputs: expected a non-empty list
    built = _built_by_dataclass_from()
    assert {
        "RunConfig", "ModelConfig", "WindowConfig", "ShapConfig", "GbtParams", "InputSpec",
        "FeatureConfig", "ResidualLoadSpec", "MixedPriceSpec", "PeriodSpec",
    } <= {c.__name__ for c in built}
    stray = [
        f"{cls.__name__}: {text!r}"
        for cls in built
        if "__post_init__" in vars(cls)
        for text in _value_error_messages(cls.__post_init__)
        if re.match(r"\w*", text).group() not in {f.name for f in dataclasses.fields(cls)}
    ]
    assert stray == []
