#!/usr/bin/env python3
"""Size of the public surface of the nsrpf package.

    python3 scripts/surface_counts.py [PACKAGE_DIR]

Reads the modules of PACKAGE_DIR (default: this checkout's src/nsrpf) with
``ast``, imports nothing, and prints in sorted order:

* the line count of the package;
* every public function and method (name without a leading underscore, in
  a class without one; nested functions are not counted) with its
  parameters, ``self``/``cls`` left out, and how many of them have a
  default value, followed by the totals;
* every dataclass with its field count, followed by the total;
* every config key that ``cli.parse_config`` reads, as ``[section].key``
  with its default (the source text of each distinct default, ``required``
  when there is none, ``-`` for an optional key without a default),
  followed by the total;
* every private name (leading underscore) that one module of the package
  imports from another, as ``importer <- module._name``, followed by the
  total.

Two checkouts can be compared by ``diff`` of their outputs.
"""
import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _params(fn: ast.FunctionDef, method: bool) -> tuple[list[str], int]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args]
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        names = names[1:]
    names += [f"*{a.vararg.arg}"] if a.vararg else []
    names += [p.arg for p in a.kwonlyargs]
    names += [f"**{a.kwarg.arg}"] if a.kwarg else []
    defaults = len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return names, defaults


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _n_fields(cls: ast.ClassDef) -> int:
    return sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
               and "ClassVar" not in ast.unparse(s.annotation) for s in cls.body)


def _config_keys(tree: ast.Module) -> dict:
    """[section].key -> defaults, from the ``_get(cp, section, key, conv,
    default)`` and ``cp.get(section, key)`` calls of the CLI module."""
    keys: dict = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "_get":
            where, default = node.args[1:3], (ast.unparse(node.args[4])
                                               if len(node.args) > 4 else "required")
        elif isinstance(f, ast.Attribute) and f.attr == "get" and len(node.args) == 2:
            where, default = node.args, "-"
        else:
            continue
        if all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in where):
            defaults = keys.setdefault(f"[{where[0].value}].{where[1].value}", [])
            if default not in defaults:
                defaults.append(default)
    return keys


def main(argv) -> int:
    pkg = pathlib.Path(argv[0]) if argv else ROOT / "src" / "nsrpf"
    lines = 0
    funcs = []     # (qualified name, parameter names, defaults)
    classes = []   # (qualified name, field count)
    config_keys = {}
    private_imports = []   # "importer <- module._name"
    for path in sorted(pkg.glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        mod = path.stem
        tree = ast.parse(text)
        if mod == "cli":
            config_keys = _config_keys(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private_imports += [f"{mod} <- {node.module}.{a.name}"
                                    for a in node.names if a.name.startswith("_")]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                funcs.append((f"{mod}.{node.name}", *_params(node, method=False)))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    classes.append((f"{mod}.{node.name}", _n_fields(node)))
                if node.name.startswith("_"):
                    continue
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        funcs.append((f"{mod}.{node.name}.{item.name}",
                                      *_params(item, method=True)))
    print(f"lines {pkg.name}: {lines}")
    print("functions and methods: name(parameters) defaults")
    for name, params, defaults in sorted(funcs):
        print(f"  {name}({', '.join(params)}) {defaults}")
    print(f"total: {len(funcs)} functions and methods, "
          f"{sum(len(p) for _, p, _ in funcs)} parameters, "
          f"{sum(d for _, _, d in funcs)} with a default")
    print("dataclasses: name fields")
    for name, n in sorted(classes):
        print(f"  {name} {n}")
    print(f"total: {len(classes)} dataclasses, {sum(n for _, n in classes)} fields")
    print("config keys: [section].key default")
    for key, defaults in sorted(config_keys.items()):
        print(f"  {key} {' | '.join(defaults)}")
    print(f"total: {len(config_keys)} config keys")
    print("private imports: importer <- module._name")
    for line in sorted(private_imports):
        print(f"  {line}")
    print(f"total: {len(private_imports)} private imports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
