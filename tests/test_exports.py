"""Every public name and every defaulted parameter has a caller.

Callers are the files src/assocnet/*.py and perfbench/*.py, other than
the package's __init__.py and test files. Tests do not count: surface
that only tests reach is dead code. The rules:

- An exported name, or a public module-level def or class of the
  package, is called when it appears as a name token (not inside a
  string or comment) in a caller, other than on the def or class line
  that defines it.
- A public method or property of an exported class is called when a
  caller reads an attribute of that name (an ast.Attribute, so a local
  variable of the same name does not count).
- A parameter with a default, of any function in the package, is passed
  when some call of a function of that name, as f(...) or x.f(...),
  passes it by keyword, at its position, or through *args or **kwargs.

Calls are matched by name alone, so a same-named function elsewhere
counts too: the rules can miss dead surface but never flag live surface.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

import assocnet

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "assocnet").glob("*.py"))
CALLERS = [
    path
    for path in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
    if path.name != "__init__.py" and not path.name.startswith("test_")
]

# Surface kept without a caller, each for a stated reason: a name, or
# "function.parameter" for a defaulted parameter.
KEEP = {
    "covariance_matrix": "the README's entry point for raw sample data",
    "cooccurrence_pvalues": "awaits an incidence-input infer path; criterion 09 checks it",
    "read_incidence_tsv": "awaits `infer --kind incidence` (ROADMAP item 6)",
    "_lloyd.max_iter": "a test drives a single Lloyd step through it",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def called_names() -> set[str]:
    names = set()
    for path in CALLERS:
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        previous = None
        for tok in tokens:
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                previous = tok.string
    return names


def public_defs() -> list[ast.FunctionDef | ast.ClassDef]:
    """Every public module-level function and class of the package."""
    return [
        node
        for path in SOURCES
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def uncalled_exports() -> list[str]:
    called = called_names()
    return sorted(name for name in assocnet.__all__ if name not in called)


def uncalled_defs() -> list[str]:
    called = called_names()
    return sorted(node.name for node in public_defs() if node.name not in called)


def unread_methods() -> list[str]:
    """Public methods and properties of exported classes, as "Class.method"."""
    read = {node.attr for path in CALLERS for node in ast.walk(parse(path))
            if isinstance(node, ast.Attribute)}
    return sorted(
        f"{cls.name}.{func.name}"
        for cls in public_defs()
        if isinstance(cls, ast.ClassDef) and cls.name in assocnet.__all__
        for func in cls.body
        if isinstance(func, ast.FunctionDef)
        and not func.name.startswith("_")
        and func.name not in read
    )


def defaulted_parameters():
    """(function, parameter, position) for each defaulted parameter in the package.

    position is where a call passes the parameter, self or cls not
    counted; None for a keyword-only one.
    """
    for path in SOURCES:
        tree = parse(path)
        bound = {
            id(func)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for func in cls.body
            if isinstance(func, ast.FunctionDef)
            and not any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
        }
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            shift = 1 if id(func) in bound else 0
            for place in range(len(positional) - len(args.defaults), len(positional)):
                yield func.name, positional[place].arg, place - shift
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield func.name, arg.arg, None


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_parameters() -> list[str]:
    """Defaulted parameters no call passes, as "function.parameter"."""
    calls = defaultdict(list)
    for path in CALLERS:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls[name].append(node)
    return sorted(
        f"{function}.{parameter}"
        for function, parameter, position in defaulted_parameters()
        if not any(passes(call, parameter, position) for call in calls[function])
    )


def test_every_export_has_a_caller():
    assert [name for name in uncalled_exports() if name not in KEEP] == []


def test_every_public_def_has_a_caller():
    assert [name for name in uncalled_defs() if name not in KEEP] == []


def test_every_public_method_of_an_export_has_a_caller():
    assert [name for name in unread_methods() if name not in KEEP] == []


def test_every_defaulted_parameter_is_passed():
    assert [name for name in unpassed_parameters() if name not in KEEP] == []


def test_keep_list_names_uncalled_surface():
    flagged = uncalled_exports() + uncalled_defs() + unread_methods() + unpassed_parameters()
    assert set(KEEP) <= set(flagged)
