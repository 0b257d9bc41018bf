"""SC002 — hot-path discipline for ``# simcheck: hotpath`` functions.

The throughput PR's contract (DESIGN.md §6.1/§7.2): the per-instruction
pipeline — ``FunctionalFrontend.produce_batch``, ``RunaheadQueue.prepare``,
``OoOCore.process_batch``, ``OoOCore._handle_mispredict`` — pays for
observability with **one** ``_obs is None`` test per batch-level call and
does no logging, formatting, or avoidable allocation inside its loops.
CI's perf-ab job (``tools/perf_ab.py``, a paired perfbench run against the
parent commit) measures the consequence; this rule pins the cause.  A
marked function may not:

* test ``_obs`` (or a local bound from ``self._obs``) against ``None``
  more than once,
* touch ``_obs`` inside a for/while loop at all,
* call ``print``/``logging``/``warnings``/``time`` functions, an
  obs-derived method, or ``getattr``/``setattr``/``vars``/``globals``
  inside a loop,
* build f-strings / ``%`` / ``.format`` strings inside a loop, except
  under a ``raise`` (error paths are cold by definition),
* create comprehensions, generator expressions, lambdas, or nested
  defs/classes inside a loop.

Mark a function with ``# simcheck: hotpath`` on (or directly above) its
``def`` line to opt it in.
"""

from __future__ import annotations

import ast

from simcheck.rules import in_scope, register
from simcheck.rules._util import (dotted_name, enclosing_raise_spans,
                                  in_spans, loops_in, walk_functions)

_LOOP_BANNED_MODULE_CALLS = ("logging.", "warnings.", "time.")
_LOOP_BANNED_NAME_CALLS = {"print", "getattr", "setattr", "vars",
                           "globals", "locals"}


def _obs_locals(func: ast.FunctionDef) -> set:
    """Local names bound from a ``*._obs`` attribute load."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Attribute) and \
                node.value.attr == "_obs":
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_obs_expr(node: ast.AST, obs_names: set) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "_obs") or \
        (isinstance(node, ast.Name) and node.id in obs_names)


@register
class HotPathRule:
    id = "SC002"
    title = ("hot-path discipline: one _obs check per call, no "
             "logging/formatting/allocation in marked functions' loops")
    severity = "error"

    def check(self, src, project):
        if not in_scope(src, self.id, repro_only=False):
            return
        for func in walk_functions(src.tree):
            if not src.has_marker("hotpath", func):
                continue
            yield from self._check_function(src, func)

    def _check_function(self, src, func):
        obs_names = _obs_locals(func)

        none_tests = []
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                if any(_is_obs_expr(op, obs_names) for op in operands):
                    none_tests.append(node)
        if len(none_tests) > 1:
            for extra in none_tests[1:]:
                yield src.finding(
                    "SC002", extra,
                    f"`{func.name}` tests _obs more than once; the "
                    f"hook contract is one `_obs is None` check per "
                    f"batch-level call (DESIGN.md §7.2)")

        loops = loops_in(func)
        raise_spans = enclosing_raise_spans(func)
        seen = set()
        for loop in loops:
            for node in ast.walk(loop):
                key = (id(node),)
                if key in seen:
                    continue
                seen.add(key)
                yield from self._check_loop_node(src, func, node,
                                                obs_names, raise_spans)

    def _check_loop_node(self, src, func, node, obs_names, raise_spans):
        if isinstance(node, ast.Attribute) and node.attr == "_obs":
            yield src.finding(
                "SC002", node,
                f"`{func.name}` touches _obs inside a loop; hoist the "
                f"observability hook out of the per-instruction path")
            return
        if isinstance(node, ast.Call):
            name = dotted_name(node.func) or ""
            root = name.split(".")[0]
            if name in _LOOP_BANNED_NAME_CALLS or \
                    any(name.startswith(p)
                        for p in _LOOP_BANNED_MODULE_CALLS):
                yield src.finding(
                    "SC002", node,
                    f"`{func.name}` calls `{name}()` inside a loop; "
                    f"logging/introspection is banned on the hot path")
            elif isinstance(node.func, ast.Attribute):
                if node.func.attr == "format" or \
                        _is_obs_expr(node.func.value, obs_names) or \
                        root in obs_names:
                    if node.func.attr == "format" and \
                            in_spans(node.lineno, raise_spans):
                        return
                    what = "str.format" if node.func.attr == "format" \
                        else f"obs method `{name}`"
                    yield src.finding(
                        "SC002", node,
                        f"`{func.name}` calls {what} inside a loop")
            return
        if isinstance(node, ast.JoinedStr) and \
                not in_spans(node.lineno, raise_spans):
            yield src.finding(
                "SC002", node,
                f"`{func.name}` builds an f-string inside a loop "
                f"(allocation on the per-instruction path); only raise "
                f"paths may format")
        elif isinstance(node, ast.BinOp) and \
                isinstance(node.op, ast.Mod) and \
                isinstance(node.left, (ast.Constant, ast.JoinedStr)) and \
                isinstance(getattr(node.left, "value", None), str) and \
                not in_spans(node.lineno, raise_spans):
            yield src.finding(
                "SC002", node,
                f"`{func.name}` %-formats a string inside a loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp, ast.Lambda)):
            yield src.finding(
                "SC002", node,
                f"`{func.name}` creates a "
                f"{type(node).__name__} inside a loop; build it once "
                f"outside the per-instruction path")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield src.finding(
                "SC002", node,
                f"`{func.name}` defines `{node.name}` inside a loop")
