"""List names that a module imports and never uses.

Usage: python3 tools/unused_imports.py FILE...

Each file is parsed with `ast`.  A name bound by a module-level `import`
or `from ... import` (other than `from __future__`) counts as used when it
occurs as a name anywhere in the module, including inside a string
annotation such as "Optional[Group]".  Every unused name is printed as
file:line, and the exit status is 1 when there is any.
"""

import ast
import sys


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(path: str) -> list:
    """(line, name) for every imported name the module at `path` never uses."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = _used_names(tree)
    return [(line, name) for line, name in imported if name not in used]


def main(paths) -> int:
    found = [(path, line, name) for path in paths for line, name in unused_imports(path)]
    for path, line, name in found:
        print(f"{path}:{line}: {name} is imported but never used")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
