"""SC007 — async-safety: no blocking work reachable from the repro
package's coroutines, and no synchronous lock held across an ``await``.

The service daemon (DESIGN.md §10) runs every client on one asyncio
event loop, and the engine's pool attempt loop
(``repro/engine/scheduler.py``) runs every pool attempt on one; a
single blocking call anywhere under an ``async def`` —
``time.sleep``, a synchronous ``open``/``os.write``, ``subprocess``, an
un-awaited ``Future.result()`` — stalls *all* connections, and the bug
class is invisible to unit tests because a stalled loop still produces
correct answers, just late.  This rule walks the whole-program call
graph (:mod:`simcheck.graph` / :mod:`simcheck.effects`) so the blocking
call is found even when it hides two hops away in a shared helper:

* every ``async def`` in ``src/repro/`` is checked for *direct*
  blocking effects in its own body;
* every call it makes to a synchronous project function is checked for a
  blocking effect reachable through synchronous callees only — the
  finding lands at the call site and names the chain
  (``submit -> _journal -> RunJournal.record: os.write``);
* a non-async ``with`` on a ``threading`` lock whose body contains an
  ``await`` is flagged: the lock is held across a scheduling point, so
  every other task contending for it blocks the loop.

Sanctioned escapes need no annotation: ``asyncio.to_thread(fn, ...)``
and ``loop.run_in_executor(None, fn, ...)`` pass ``fn`` as a *value*,
not a call, so no call-graph edge exists and nothing is flagged —
which is exactly the repo's policy for doing blocking work from a
coroutine.  Anything else takes ``# simcheck: allow=SC007 <why>``.
"""

from __future__ import annotations

import ast

from simcheck.effects import Effect
from simcheck.rules import in_scope, register


def _is_lock_typed(expr: ast.AST, func, graph, env) -> bool:
    """Does this with-item expression denote a ``threading`` lock?"""
    if isinstance(expr, ast.Name):
        return env.get(expr.id) == "threading-lock"
    if isinstance(expr, ast.Attribute) and \
            isinstance(expr.value, ast.Name) and \
            expr.value.id in ("self", "cls") and func.cls is not None:
        return func.cls.attr_types.get(expr.attr) == "threading-lock"
    return False


@register
class AsyncSafetyRule:
    id = "SC007"
    title = ("async-safety: no blocking call transitively reachable "
             "from repro coroutines; no sync lock held across await")
    severity = "error"

    def check(self, src, project):
        if not in_scope(src, self.id):
            return
        graph = project.graph
        effects = project.effects
        for func in graph.functions_in(src):
            if not func.is_async:
                continue
            yield from self._check_coroutine(src, func, graph, effects)

    def _check_coroutine(self, src, func, graph, effects):
        # Direct blocking effects in the coroutine's own body.
        for w in effects.direct.get(func.qname, ()):
            if w.effect == Effect.BLOCKING:
                yield src.finding(
                    "SC007", w.line,
                    f"coroutine `{func.name}` blocks the event loop: "
                    f"{w.detail}; run it via asyncio.to_thread / "
                    f"run_in_executor")

        # Blocking effects reached through synchronous callees.  Async
        # callees are skipped: they are their own SC007 subjects, and
        # awaiting them yields the loop at every hop.
        seen_lines = set()
        for call, callee in graph.calls_in(func):
            if callee.is_async or call.lineno in seen_lines:
                continue
            witness = effects.sync_blocking_witness(callee)
            if witness is None:
                continue
            seen_lines.add(call.lineno)
            yield src.finding(
                "SC007", call,
                f"coroutine `{func.name}` reaches blocking work "
                f"through `{callee.name}`: "
                f"{witness.via(func.qname).describe()}; move the "
                f"blocking hop onto an executor thread")

        # Synchronous lock held across an await.
        env = graph.local_types(func)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.With):
                continue
            holds_lock = any(
                _is_lock_typed(item.context_expr, func, graph, env)
                for item in node.items)
            if not holds_lock:
                continue
            if any(isinstance(inner, ast.Await)
                   for stmt in node.body for inner in ast.walk(stmt)):
                yield src.finding(
                    "SC007", node,
                    f"coroutine `{func.name}` holds a threading lock "
                    f"across an await: the loop deadlocks if another "
                    f"task contends; use asyncio.Lock or release "
                    f"before awaiting")
