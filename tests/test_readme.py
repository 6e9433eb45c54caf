"""README's quoted call forms name the parameters that the code declares.

An inline `name(a, b, ...)` whose name resolves to a decentsim function or
class must list that callable's leading parameter names, in order. A
quote may show a call rather than a signature, as in
`ef_step(grad, err, out=err, work=row)`, so each `=value` is dropped.
Fenced code blocks are left out: they are programs, not signatures.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import decentsim

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`")
MODULES = [decentsim, *(importlib.import_module(f"decentsim.{m.name}")
                        for m in pkgutil.iter_modules(decentsim.__path__))]


def resolve(name: str):
    """The decentsim function or class that a dotted name reaches from some module, or None."""
    parts = name.split(".")
    parts = parts[1:] if parts[0] == "decentsim" else parts
    for module in MODULES:
        obj = module
        for part in parts:
            obj = getattr(obj, part, None)
        if callable(obj) and getattr(obj, "__module__", "").startswith("decentsim"):
            return obj
    return None


def quoted_calls(text: str) -> list[tuple[str, list[str]]]:
    """Each inline `name(args)` outside fenced blocks, as (name, argument names)."""
    calls = []
    for name, args in CALL.findall(FENCE.sub("", text)):
        names = [arg.partition("=")[0].strip() for arg in args.split(",")] if args else []
        calls.append((name, names))
    return calls


def test_the_reader_drops_values_and_fenced_blocks():
    text = "`f(a, b=2)` and `g()`\n```python\nf(z)\n```\n`m.h(c)`\n"
    assert quoted_calls(text) == [("f", ["a", "b"]), ("g", []), ("m.h", ["c"])]


def test_readme_quotes_each_decentsim_signature_by_its_parameter_names():
    checked, wrong = [], []
    for name, args in quoted_calls(README.read_text(encoding="utf-8")):
        target = resolve(name)
        if target is None:
            continue
        declared = list(inspect.signature(target).parameters)[:len(args)]
        checked.append(name)
        if declared != args:
            wrong.append(f"{name}({', '.join(args)}): the code says ({', '.join(declared)})")
    assert wrong == []
    assert {"StackedState", "run_round", "ef_step", "neighbor_slots"} <= set(checked)
