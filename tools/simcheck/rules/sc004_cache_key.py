"""SC004 — cache-key completeness for content-addressed job specs.

The experiment engine's correctness rests on :meth:`SimJob.spec` naming
*everything* that determines a simulation's outcome: a field that exists
on the dataclass but silently misses the SHA-256 key makes two different
jobs share a cache entry — the cache then serves wrong results with no
error anywhere.  ``trace_dir`` set the precedent for the one legitimate
exception (side-effect-only fields that must NOT key the cache).

The rule applies to every dataclass that defines a ``spec`` method (the
hash basis) and requires the partition to be *declared*:

* module- or class-level ``KEYED_FIELDS`` and ``KEY_EXCLUDED_FIELDS``
  literal sets must exist,
* keyed ∪ excluded == the dataclass's fields, keyed ∩ excluded == ∅,
* every keyed field must be read somewhere in ``spec``'s transitive
  self-method closure (``spec`` -> ``self.config()`` -> overrides …),
* no excluded field may be reachable from ``spec`` — an excluded field
  feeding the hash is as wrong as a keyed field missing it.

The same criterion decides what is cached at all: a job kind's results
go to the result store iff it defines ``spec()``
(``repro.engine.job.cacheable``).  ``src/repro/engine/job.py`` mirrors
the partition at run time for every such kind (`_assert_key_partition`:
``SimJob`` at import, and every kind whenever ``cacheable`` admits one
of its jobs to a store), so the invariant holds for dynamically added
fields too; this rule makes it a lint-time failure with a file:line.
"""

from __future__ import annotations

import ast

from simcheck.rules import in_scope, register
from simcheck.rules._util import (class_methods, const_str_elts,
                                  dataclass_fields, is_dataclass,
                                  self_attr_loads, self_method_calls)

KEYED_NAME = "KEYED_FIELDS"
EXCLUDED_NAME = "KEY_EXCLUDED_FIELDS"


def _declared_sets(tree: ast.AST, cls: ast.ClassDef):
    """(keyed, excluded, line) from module- or class-level literals."""
    found = {}
    scopes = list(tree.body) + list(cls.body)
    for stmt in scopes:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id in (KEYED_NAME, EXCLUDED_NAME):
            elts = const_str_elts(stmt.value)
            if elts is not None:
                found[stmt.targets[0].id] = (frozenset(elts),
                                             stmt.lineno)
    return found


def _spec_closure(cls: ast.ClassDef):
    """Self attributes reachable from ``spec`` through self-method calls."""
    methods = class_methods(cls)
    reached_attrs = set()
    visited = set()
    frontier = ["spec"]
    while frontier:
        name = frontier.pop()
        if name in visited or name not in methods:
            continue
        visited.add(name)
        func = methods[name]
        reached_attrs |= self_attr_loads(func)
        frontier.extend(self_method_calls(func))
    return reached_attrs


@register
class CacheKeyRule:
    id = "SC004"
    title = ("cache-key completeness: every job-spec dataclass field is "
             "keyed or explicitly excluded, and spec() reaches exactly "
             "the keyed ones")
    severity = "error"

    def check(self, src, project):
        if not in_scope(src, self.id):
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and is_dataclass(node) \
                    and "spec" in class_methods(node):
                yield from self._check_class(src, node)

    def _check_class(self, src, cls):
        fields = dict(dataclass_fields(cls))
        declared = _declared_sets(src.tree, cls)
        missing_decls = [n for n in (KEYED_NAME, EXCLUDED_NAME)
                         if n not in declared]
        if missing_decls:
            yield src.finding(
                "SC004", cls,
                f"dataclass `{cls.name}` has a spec() hash basis but "
                f"does not declare {' / '.join(missing_decls)} as a "
                f"literal set; the key partition must be explicit")
            return
        keyed, keyed_line = declared[KEYED_NAME]
        excluded, excl_line = declared[EXCLUDED_NAME]

        overlap = keyed & excluded
        if overlap:
            yield src.finding(
                "SC004", keyed_line,
                f"`{cls.name}`: field(s) {sorted(overlap)} appear in "
                f"both {KEYED_NAME} and {EXCLUDED_NAME}")

        field_names = set(fields)
        for name in sorted(field_names - (keyed | excluded)):
            yield src.finding(
                "SC004", fields[name],
                f"`{cls.name}.{name}` is neither keyed nor excluded: "
                f"a field missing the SHA-256 key makes distinct jobs "
                f"share a cache entry (add it to {KEYED_NAME}, or to "
                f"{EXCLUDED_NAME} with a comment saying why it cannot "
                f"affect results)")
        for name in sorted((keyed | excluded) - field_names):
            where = keyed_line if name in keyed else excl_line
            yield src.finding(
                "SC004", where,
                f"`{cls.name}`: declared field `{name}` does not exist "
                f"on the dataclass (stale partition declaration)")

        reached = _spec_closure(cls)
        for name in sorted((keyed & field_names) - reached):
            yield src.finding(
                "SC004", fields[name],
                f"`{cls.name}.{name}` is declared keyed but spec() "
                f"never reads it (directly or via self-method calls); "
                f"the hash silently ignores it")
        for name in sorted(excluded & reached & field_names):
            yield src.finding(
                "SC004", fields[name],
                f"`{cls.name}.{name}` is declared key-excluded but is "
                f"reachable from spec(); excluded fields must not feed "
                f"the hash")
