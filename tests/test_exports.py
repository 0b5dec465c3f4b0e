import ast
import pathlib

import tropd4

ROOT = pathlib.Path(tropd4.__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "tropd4"

# Acceptance criterion 12 round-trips sampled cones through cone_rays, the
# package's halfspace-to-ray conversion for pointed cones; the pipeline
# itself reads rays off Cone, so only the tests call it.
ALLOWED = {"cone_rays"}


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
