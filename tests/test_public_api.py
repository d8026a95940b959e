"""Every public function, every field of a public type and every default of a
public function of bosonid has a use outside the tests: code only tests reach
belongs in the tests.  The Monte Carlo layer does not depend on codes and
has one sampling kernel, the Fock-space oracle imports only the channel, the
geometry computes on real rows, a code's complex view is made in one
place, no module imports scipy on import, the
scipy floor in pyproject.toml has every scipy.special name src/ imports, and
each range rule is written once."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import bosonid

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))]
SOURCE_LINES = [line for text in SOURCES for line in text.splitlines()]
# names passed as ``name=`` in some call
SOURCE_KEYWORDS = {kw.arg for text in SOURCES for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Call) for kw in node.keywords}
MODULES = [importlib.import_module(f"bosonid.{info.name}")
           for info in pkgutil.iter_modules(bosonid.__path__)]


@pytest.mark.parametrize("module", [bosonid, *MODULES], ids=lambda m: m.__name__)
def test_public_functions_are_used(module):
    unused = []
    for name in getattr(module, "__all__", ()):
        if not inspect.isfunction(getattr(module, name)):
            continue
        word = re.compile(rf"\b{name}\b")
        uses = [line for line in SOURCE_LINES if word.search(line)
                and not re.match(rf"\s*def {name}\(", line)  # its definition
                and line.strip() != f'"{name}",']  # its __all__ entry
        if not uses:
            unused.append(name)
    assert not unused, f"{module.__name__}.__all__ names functions nothing uses: {unused}"


@pytest.mark.parametrize("module", [bosonid, *MODULES], ids=lambda m: m.__name__)
def test_public_fields_are_read(module):
    """Every field of a dataclass or NamedTuple named in an ``__all__`` is read
    as ``.field`` on some line of src/.  The match is by text, so
    ``args.delta`` would count as a read of a field called ``delta``."""
    unread = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if dataclasses.is_dataclass(obj):
            fields = [f.name for f in dataclasses.fields(obj)]
        elif isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
            fields = list(obj._fields)
        else:
            continue
        for field in fields:
            read = re.compile(rf"\.{field}\b")
            if not any(read.search(line) for line in SOURCE_LINES):
                unread.append(f"{name}.{field}")
    assert not unread, f"{module.__name__}.__all__ names types with unread fields: {unread}"


@pytest.mark.parametrize("module", [bosonid, *MODULES], ids=lambda m: m.__name__)
def test_public_defaults_are_set(module):
    """Every defaulted parameter of a function named in an ``__all__`` is passed
    by name in some call in src/: a default that no caller overrides is a
    constant.  The match is by name, so ``size=`` in a numpy call counts too."""
    unset = []
    for name in getattr(module, "__all__", ()):
        fn = getattr(module, name)
        if not inspect.isfunction(fn):
            continue
        unset += [f"{name}({param.name}=)"
                  for param in inspect.signature(fn).parameters.values()
                  if param.default is not param.empty and param.name not in SOURCE_KEYWORDS]
    assert not unset, f"{module.__name__}.__all__ names defaults nothing sets: {unset}"


def bosonid_imports(module):
    """Dotted names of what a module of bosonid imports from bosonid, such as
    ``bosonid.photonstats.ChannelModel``; relative imports are from bosonid."""
    tree = ast.parse((ROOT / "src" / "bosonid" / f"{module}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parent = ".".join(["bosonid"] * bool(node.level) + [node.module] * bool(node.module))
            imported += [f"{parent}.{alias.name}" for alias in node.names]
    return [name for name in imported if name.split(".")[0] == "bosonid"]


def test_montecarlo_does_not_import_scheme():
    """The estimators take the count law's parameters, k and ||Delta||^2, not
    a code: `montecarlo` reads nothing of `scheme`."""
    assert not [name for name in bosonid_imports("montecarlo")
                if name.split(".")[:2] == ["bosonid", "scheme"]]


def test_montecarlo_has_one_sampling_kernel():
    """Both receivers are cuts on the same draws: one top-level function of
    `montecarlo` draws the intensities, seeds the chunk streams and runs them
    on threads, and no other function touches any of the three."""
    kernel = {"_intensities", "ThreadPoolExecutor", "SeedSequence"}
    tree = ast.parse((ROOT / "src" / "bosonid" / "montecarlo.py").read_text())
    uses = [{getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(function)} & kernel
            for function in tree.body if isinstance(function, ast.FunctionDef)]
    assert [used for used in uses if used] == [kernel]


def test_fockspace_imports_only_the_channel():
    """The Fock-space oracle builds its states from the channel alone: none of
    the formulas it checks reaches it through an import."""
    assert bosonid_imports("fockspace") == ["bosonid.photonstats.ChannelModel"]


def test_geometry_computes_on_real_rows():
    """`geometry` takes plain numbers and real rows: it defines no dataclass
    and reads no ``.real`` or ``.imag``, and its one complex-aware line
    refuses a complex array."""
    tree = ast.parse((ROOT / "src" / "bosonid" / "geometry.py").read_text())
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
    assert not names & {"dataclass", "real", "imag"}


def _functions_naming(module: str, names: set) -> set:
    """Qualified names of the innermost functions of ``module`` that use one
    of ``names`` as a name or an attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (getattr(node, "id", None) or getattr(node, "attr", None)) in names:
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((ROOT / "src" / "bosonid" / f"{module}.py").read_text()), module)
    return found


def test_code_layout_is_real_rows():
    """A code is its real (M, 2k) rows in `scheme`, `montecarlo` and `cli`:
    only `SignatureSet.signatures` views them as complex, and only
    `exact_lambda2` coerces its caller's vector, which may be complex.  The
    oracle suite, `cli._verify_checks`, takes real parts of Fock-space
    matrices and builds no code."""
    converting = {"complex", "view", "real", "imag"}
    found = set().union(*(_functions_naming(m, converting)
                          for m in ("scheme", "montecarlo", "cli")))
    assert found == {"scheme.SignatureSet.signatures", "montecarlo.exact_lambda2",
                     "cli._verify_checks"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "bosonid").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_level_scipy_import(path):
    """Importing bosonid loads numpy alone: scipy is imported inside the
    functions that call it, so commands that compute no tail and no Fock
    matrix (`pack`, `--help`) start without it."""
    imported, stack = [], list(ast.parse(path.read_text()).body)
    while stack:  # every statement that runs on import: all but function bodies
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_scipy_floor_has_the_special_functions_imported():
    """No ``scipy.special`` name imported under src/ was added to scipy after
    the ``scipy>=`` floor in pyproject.toml, by its ``versionadded`` note.
    The floor is read by a regex: tomllib needs Python 3.11."""
    def version(text):
        return (*map(int, text.split(".")), 0, 0)[:3]

    floor = re.search(r'"scipy>=([\d.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    special = importlib.import_module("scipy.special")
    names = sorted({alias.name for text in SOURCES for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.ImportFrom) and node.module == "scipy.special"
                    for alias in node.names})
    assert names
    newer = [f"{name} ({added})" for name in names
             for added in re.findall(r"versionadded::\s*([\d.]+)", getattr(special, name).__doc__)
             if version(added) > version(floor)]
    assert not newer, f"scipy>={floor} lacks {newer}"


@pytest.mark.parametrize("rule", ["k must be >= 1", "must be finite and >= 0"])
def test_range_rule_is_written_once(rule):
    """Each range rule has one check, which every module calls."""
    assert sum(text.count(rule) for text in SOURCES) == 1


def test_signature_file_reader_only_parses():
    """The rules of a loaded code are those of a built one, checked by
    `SignatureSet`: the file reader checks its format alone."""
    reader = inspect.getsource(importlib.import_module("bosonid.scheme")._read_signature_set)
    assert "must be" not in reader and "math.inf" not in reader and "energies" not in reader
    assert "reshape" not in reader  # no copy of the 2k width rule
