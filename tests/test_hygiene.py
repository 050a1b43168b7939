"""Static checks on the package source: every import is used, every
private module-level function or class is referenced somewhere in it, no
module reads another's private names, no module imports scipy, the data
layer imports no solver and the solvers no driver, the solvers cast no
real data to complex, and no module is long enough to
double the parser's token array."""

import ast
import io
import pathlib
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qstein"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module's ``__all__``."""
    out = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            out |= {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return out


def _referenced(tree: ast.Module) -> set[str]:
    """Names a module reads: bare names, attribute names, imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_import(name):
    tree = TREES[name]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in read:
                    unused.append(bound)
    assert not unused, f"{name} imports but never uses {unused}"


def test_no_unreferenced_private_definition():
    referenced = set().union(*(_referenced(t) for t in TREES.values()))
    orphans = [f"{name}:{node.name}"
               for name, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in referenced]
    assert not orphans, f"private definitions nothing references: {orphans}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_name_crosses_modules():
    """A name another module uses is public where it lives: no module
    imports ``from .m import _x`` or reads ``m._x`` of a module bound by
    ``from . import m``."""
    crossing = []
    for name, tree in TREES.items():
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for alias in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is not None):
                crossing += [f"{name}:{node.lineno} {node.module}.{a.name}"
                             for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                crossing.append(f"{name}:{node.lineno} "
                                f"{node.value.id}.{node.attr}")
    assert not crossing, f"private names read across modules: {crossing}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_scipy_import(name):
    """scipy is a test-only dependency: the package runs on numpy alone."""
    imported = set()
    for node in ast.walk(TREES[name]):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {m for m in imported if m.split(".")[0] == "scipy"}


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, inside functions too:
    ``from . import m``, ``from .m import x`` and ``qstein.m``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                out |= {alias.name for alias in node.names}
            elif node.level == 1:
                out.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("qstein."):
                out.add(node.module.split(".")[1])
            elif node.module == "qstein":
                out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("qstein.")}
    return out


SOLVERS = {"fw", "typeclass", "optim"}
DRIVERS = {"pipeline", "verify", "cli"}
# what each module of the data layer and of the solvers may not import
FORBIDDEN = {
    **dict.fromkeys(("errors", "certificates", "opalg", "rand", "entropy",
                     "lp", "symmetry", "freesets"), SOLVERS | DRIVERS),
    **dict.fromkeys(SOLVERS, DRIVERS)}


@pytest.mark.parametrize("name", sorted(FORBIDDEN))
def test_layers_import_downward(name):
    """The data layer imports no solver and no driver, and the solvers
    import no driver."""
    found = _package_imports(TREES[f"{name}.py"]) & FORBIDDEN[name]
    assert not found, f"{name} imports {sorted(found)}"


SPECTRAL = {"eigh", "eigvalsh", "eig", "eigvals", "svd"}


def test_one_spectral_backend():
    """``np.linalg`` spectral routines are called only in ``opalg.eigh``,
    the one backend, and for the polar factor of
    ``symmetry.perm_invariant_purification``."""
    calls = set()
    for name, tree in TREES.items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in SPECTRAL
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "linalg"):
                    calls.add((name, getattr(top, "name", None), node.attr))
                elif (isinstance(node, ast.ImportFrom) and node.module
                      and node.module.endswith("linalg")):
                    calls |= {(name, None, alias.name) for alias in node.names
                              if alias.name in SPECTRAL}
    assert calls <= {("opalg.py", "eigh", "eigh"),
                     ("symmetry.py", "perm_invariant_purification", "svd")}


def test_optim_guesses_no_structure():
    """Type-class coordinates come from an ``opalg.Power`` alone: the
    solvers (``optim``, ``fw``, ``typeclass``) run no invariance scan,
    symmetric-subspace support test or rank-one test on a dense operator."""
    guesses = {"is_perm_invariant", "sym_isometry", "rank_one_factor"}
    for name in ("fw.py", "optim.py", "typeclass.py"):
        assert not guesses & _referenced(TREES[name]), name


def _is_complex(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "complex"


def test_solvers_keep_real_data_real():
    """A matrix is as real as its data, and ``opalg.eigh`` alone decides
    whether a computed one is real: the solvers cast nothing to complex
    (no ``astype(complex)``, no ``dtype=complex``) and read no imaginary
    part."""
    found = []
    for name in ("fw.py", "optim.py", "typeclass.py"):
        for node in ast.walk(TREES[name]):
            if isinstance(node, ast.Attribute) and node.attr == "imag":
                found.append(f"{name}:{node.lineno} .imag")
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "astype"
                        and any(map(_is_complex, node.args))):
                    found.append(f"{name}:{node.lineno} astype(complex)")
                if any(k.arg == "dtype" and _is_complex(k.value)
                       for k in node.keywords):
                    found.append(f"{name}:{node.lineno} dtype=complex")
    assert not found, f"complex casts or realness tests: {found}"


# CPython's parser holds a module's tokens in an array it doubles when
# full; compiling a module of more than this many tokens doubles it past
# 8192 entries.  Under ``tracemalloc`` on Python 3.11, compiling optim.py
# padded to 8,192 tokens peaks at 2.73 MiB and at 8,193 at 3.17 MiB.  The
# benchmark compiles the package from source, so a module past the mark
# raises its peak memory.
PARSER_TOKEN_MARK = 8192


def _parser_tokens(source: str) -> int:
    """Tokens of a source as the parser counts them: ``tokenize``'s, less
    the COMMENT and NL tokens the parser's tokenizer never emits."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(1 for tok in tokens
               if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("name", sorted(TREES))
def test_module_within_parser_token_array(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert _parser_tokens(source) <= PARSER_TOKEN_MARK
