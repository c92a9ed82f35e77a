"""Package hygiene: a light import path and certificates that survive -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import betahole
from betahole import cli
from betahole.numeric import Interval

PKG = Path(betahole.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def run_python(code):
    """stdout of a fresh interpreter that imports betahole from PKG."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PKG.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def passed_words(tree):
    """Words of the strings a test passes as arguments: those given to a
    run(...) or invoke(...) call or listed in a tuple or list (argument
    tuples, "cmd --flag v" strings to split). A string a test only looks
    for in the output, as in `"--flag" in r.stdout`, is not passed."""
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            items = node.args if name in ("run", "invoke") else []
        elif isinstance(node, (ast.Tuple, ast.List)):
            items = node.elts
        else:
            continue
        for item in items:
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                words.update(item.value.split())
    return words


def test_every_cli_option_is_passed_by_a_test():
    # an option that no test passes can change or break unseen
    words = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        words |= passed_words(ast.parse(path.read_text()))
    flags = {flag for cmd in cli.main.commands.values()
             for param in cmd.params
             for flag in param.opts + param.secondary_opts}
    assert sorted(flags - words) == []


def test_an_option_only_looked_for_in_output_is_not_passed():
    tree = ast.parse('assert "--a" in r.stdout\n'
                     'r.stderr.startswith("--b")\n'
                     'run("atlas", "--c")\n'
                     'args = ("tau", "--d", "3")\n'
                     'cases = ["zset --e 10"]\n')
    assert sorted(w for w in passed_words(tree) if w.startswith("--")) == [
        "--c", "--d", "--e"]


def test_cli_import_does_not_load_numpy():
    assert run_python(
        "import sys, betahole.cli; print('numpy' in sys.modules)") == "False"


def test_cli_import_does_not_load_mpmath():
    assert run_python(
        "import sys, betahole.cli; print('mpmath' in sys.modules)") == "False"


def test_cli_request_does_not_load_locale():
    # click's default --help is built with gettext, whose language lookup
    # imports locale and probes the disk for message catalogs
    # (a value out of an IntRange is reported through gettext too, but
    # that request exits 2 at once)
    for args in [['tau', '--beta', '1.5'],
                 ['staircase', '--beta', '1.5', '--t-max', '0.3',
                  '--samples', '3'],
                 ['atlas', '--max-len', '4', '--kind', 'farey']]:
        assert run_python(
            "import io, sys, contextlib, betahole.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(%r, standalone_mode=False)\n"
            "print('locale' in sys.modules)" % args) == "False", args


def test_import_leaves_mpmath_precision_alone():
    assert run_python(
        "import mpmath, betahole.cli; print(mpmath.mp.prec, mpmath.iv.prec)"
    ) == "53 53"


def test_no_assert_statements_in_package():
    # python -O strips asserts, so certificates must raise explicitly
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    # a name bound by an import must be read somewhere in its module, in
    # the package (whose __init__ re-exports) and in the tests
    found = []
    paths = [p for p in sorted(PKG.glob("*.py")) if p.name != "__init__.py"]
    for path in paths + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append("%s/%s:%d %s" % (
                            path.parent.name, path.name, node.lineno, name))
    assert found == []


def module_imports(module, allowed):
    """file:line of every import of `module` (or of a submodule) in a
    package module that is not in `allowed`."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno) for name in names
                      if name.split(".")[0] == module]
    return found


def test_no_decimal_in_package():
    # printed decimals come from integer arithmetic; a request that first
    # calls into the _decimal extension maps its code pages
    assert module_imports("decimal", set()) == []


def test_only_sequences_imports_dataclasses():
    # result records are NamedTuples, so no dataclass methods are generated
    # at import; EpSequence stays a frozen dataclass, since its
    # __post_init__ builds the canonical form that a tuple's _make and
    # _replace would skip
    assert module_imports("dataclasses", {"sequences.py"}) == []


def method_calls(name, allowed):
    """file:line of every call of a method called `name` in a package
    module that is not in `allowed`."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == name]
    return found


def test_only_sequences_enumerates_shifts():
    # "every shift against a bound" is decided by extreme_shifts, so the
    # order of shifts is known to one module
    assert method_calls("shifts", {"sequences.py"}) == []


def test_only_sequences_shifts_a_sequence():
    # a rule on the shifts of a sequence is stated once, through
    # extreme_shifts
    assert method_calls("shift", {"sequences.py"}) == []


def test_no_libm_rounding_calls_in_package():
    # logs and directed rounding use integer arithmetic; a request that
    # first calls math.log2 or math.nextafter maps libm's code pages
    banned = {"log2", "nextafter", "ulp"}
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr] if isinstance(node.value, ast.Name) \
                    and node.value.id == "math" else []
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name in banned]
    assert found == []


def names_read(paths):
    """Every name and attribute that the files at `paths` read."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and \
                    not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
    return used


def test_no_unreferenced_private_functions():
    # every private module-level function and private method is used
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PKG.glob("*.py"))]
    used = names_read(sorted(PKG.glob("*.py")))
    defined = []
    for tree in trees:
        scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            defined += [n.name for n in scope.body
                        if isinstance(n, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                        and n.name.startswith("_")
                        and not n.name.startswith("__")]
    assert defined and [name for name in defined if name not in used] == []


def test_no_unread_public_names():
    # every public function, method and module constant that betahole
    # does not export is read in src/, demos/ or bench/; a function that a
    # decorator call registers (a click command) counts as read, and click
    # itself calls the get_help_option hook
    init = ast.parse((PKG / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = names_read(path for folder in ("src", "demos", "bench")
                      for path in (PKG.parents[1] / folder).rglob("*.py"))
    unread = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, ast.FunctionDef) and not any(
                        isinstance(d, ast.Call) for d in node.decorator_list):
                    names = [node.name]
                elif isinstance(node, ast.Assign) and scope is tree:
                    names = [t.id for target in node.targets
                             for t in ast.walk(target)
                             if isinstance(t, ast.Name)]
                else:
                    continue
                unread += ["%s:%s" % (path.name, name) for name in names
                           if not name.startswith("_") and
                           name not in exported | used]
    assert unread == ["cli.py:get_help_option"]


def test_every_error_class_is_raised_by_name():
    # one class per kind of failure: a class that nothing raises is a name
    # a caller may catch in vain
    tree = ast.parse((PKG / "errors.py").read_text())
    classes = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert classes and sorted(classes - raised) == []


def test_no_process_wide_caches_in_package():
    # a memo lives on the object it describes (BetaSpec keeps alpha(beta)
    # and log2 beta), so nothing a request computes outlives it
    banned = {"lru_cache", "cache"}
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr] if isinstance(node.value, ast.Name) \
                    and node.value.id == "functools" else []
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "functools":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name in banned]
    assert found == []


def test_interval_has_no_arithmetic():
    # Interval is a bracket: each monotone map that takes one (the digit
    # loop, project, 1 - 1/beta, log2) is evaluated at its two ends instead;
    # a base prints its own label (BetaSpec.nstr)
    ops = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "log2",
           "nstr"]
    assert [op for op in ops if hasattr(Interval, op)] == []
