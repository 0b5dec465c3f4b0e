import ast
import os
import pathlib
import subprocess
import sys

import tropd4

ROOT = pathlib.Path(tropd4.__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "tropd4"

# regular_subdivision is the package's lower envelope of any point
# configuration, as index sets; on Delta(3,6) the pipeline reads the masks
# of lower_cell_masks, which it is built on, so only the tests call it.
# cone_rays and cone_from_rays convert between the two descriptions of a
# cone; the fan walk reads both off one Cone, so only the tests, among
# them the round trip of acceptance criterion 12, call them.
ALLOWED = {"cone_from_rays", "cone_rays", "regular_subdivision"}


def _references(node, inside=frozenset()):
    """Every name ``node`` uses, with whether the use is an attribute
    reference (``.name``) and the names of the definitions around the
    use.  Names, attributes and imported names all count."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name):
        yield node.id, False, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, inside
    elif isinstance(node, ast.alias):
        yield node.name.rpartition(".")[2], False, inside
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


class TestDeadExports:
    def test_every_public_name_has_a_caller(self):
        """Each public top-level function and class of the package, and
        each public method, is used in ``src/``, ``scripts/`` or
        ``perfbench/`` outside its own definition.  Re-exports in
        ``__init__`` do not count.  A top-level name is used when any name,
        attribute or import matches it; a method only when an attribute
        reference ``.name`` does, so a local variable of the same name does
        not count as a call."""
        public = set()
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.parse(path.read_text(), str(path)).body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                        or node.name.startswith("_"):
                    continue
                public.add(node.name)
                if isinstance(node, ast.ClassDef):
                    public |= {f"{node.name}.{item.name}"
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_")}
        used, attributes = set(), set()
        for folder in ("src", "scripts", "perfbench"):
            for path in sorted((ROOT / folder).rglob("*.py")):
                if path == PACKAGE / "__init__.py":
                    continue
                tree = ast.parse(path.read_text(), str(path))
                for name, is_attribute, inside in _references(tree):
                    if name not in inside:
                        used.add(name)
                        if is_attribute:
                            attributes.add(name)
        unused = {name for name in public
                  if name.rpartition(".")[2] not in
                  (attributes if "." in name else used)}
        assert unused == ALLOWED


class TestUnsetDefaults:
    def test_every_default_is_overridden_somewhere(self):
        """Each defaulted parameter of a public top-level function of the
        package is passed, by position or by keyword, by some call in
        ``src/``, ``scripts/`` or ``perfbench/``.  A default that no
        caller overrides is a constant dressed as an option.  Calls are
        matched by the called name alone; ``*args`` and ``**kwargs`` count
        as passing every parameter."""
        defaulted = {}
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.parse(path.read_text(), str(path)).body:
                if not isinstance(node, ast.FunctionDef) \
                        or node.name.startswith("_"):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    defaulted[node.name, arg.arg] = i
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        defaulted[node.name, arg.arg] = None
        passed = set()
        for folder in ("src", "scripts", "perfbench"):
            for path in sorted((ROOT / folder).rglob("*.py")):
                for call in ast.walk(ast.parse(path.read_text(), str(path))):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else \
                        func.attr if isinstance(func, ast.Attribute) else None
                    positions = len(call.args)
                    if any(isinstance(a, ast.Starred) for a in call.args):
                        positions = float("inf")
                    keywords = {k.arg for k in call.keywords}
                    passed |= {
                        (fn, arg) for (fn, arg), i in defaulted.items()
                        if fn == name and (
                            arg in keywords or None in keywords
                            or i is not None and i < positions)}
        assert sorted(set(defaulted) - passed) == []


def _check_sites():
    """Each ``"check": "<name>"`` literal of a violation in ``src/``, by
    name, with the ``file:line`` of its sites."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "check" \
                        and isinstance(value, ast.Constant):
                    sites.setdefault(value.value, []).append(
                        f"{path.name}:{node.lineno}")
    return sites


class TestViolationNames:
    def test_each_check_name_has_one_site(self):
        """Each ``"check": "<name>"`` literal of a violation occurs at one
        site in ``src/``, so that a name in a report points at the one
        place that decides it."""
        sites = _check_sites()
        assert len(sites) > 1
        assert {name: where for name, where in sites.items()
                if len(where) > 1} == {}

    def test_each_check_name_is_named_by_a_test(self):
        """Each violation name of ``src/`` is a string constant of some
        test module other than this one, so that no check goes without a
        test that names what it reports when it fails."""
        named = set()
        for path in sorted((ROOT / "tests").glob("test_*.py")):
            if path.name != pathlib.Path(__file__).name:
                named |= {node.value for node in ast.walk(
                    ast.parse(path.read_text(), str(path)))
                    if isinstance(node, ast.Constant)}
        sites = _check_sites()
        assert len(sites) > 1
        assert {name: where for name, where in sites.items()
                if name not in named} == {}


def loaded_by(imports):
    """The modules that the statement ``import <imports>`` adds to
    ``sys.modules`` in a fresh interpreter with ``src/`` on the path,
    compared before and after, so a module that a site hook loads at
    start-up does not count."""
    code = ("import sys; before = set(sys.modules); "
            f"import {imports}; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return set(subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True,
                              text=True).stdout.split())


class TestImportCost:
    # the layers of the command line and of verify-all, and the standard
    # modules that dataclasses pull in
    NOT_FOR_SETUP = {"tropd4.chords", "tropd4.clusters",
                     "tropd4.correspondence", "tropd4.verify", "tropd4.cli",
                     "dataclasses", "inspect"}

    def test_setup_modules_load_no_cli_layers(self):
        """Importing ``tropd4.fan`` and ``tropd4.hypersimplex``, all that the
        benchmark's set-up imports, loads none of the modules above."""
        loaded = loaded_by("tropd4.fan, tropd4.hypersimplex")
        assert "tropd4.hypersimplex" in loaded
        assert self.NOT_FOR_SETUP & loaded == set()

    def test_cli_loads_no_dataclasses(self):
        """Importing ``tropd4.cli``, which every command and so every
        ``verify-all`` run does, loads every layer but neither
        ``dataclasses`` nor ``inspect``."""
        loaded = loaded_by("tropd4.cli")
        assert {"tropd4.chords", "tropd4.verify", "tropd4.cli"} <= loaded
        assert {"dataclasses", "inspect"} & loaded == set()
