"""SC003 — exec-handler safety for the generated instruction handlers.

The tree has exactly two sanctioned ``compile``/``exec`` sites:

* ``repro.functional.emulator._build_handlers`` renders per-opcode
  ALU/branch handler source from string templates (``{expr}``/``{test}``
  substitution) so executing an instruction costs a single flat call;
* ``repro.functional.superblock._compile_block`` compiles the
  per-basic-block superhandlers — the functional block variants
  (``superblock.py``'s own template tables), the timing superhandlers
  (``repro.core.timingblock``'s ``TIMING_TEMPLATES``) and the
  wrong-path stream superhandlers (``repro.wrongpath.streamblock``'s
  ``STREAM_TEMPLATES``), plus the pipeline steps the last two share
  (``timingblock.STEP_TEMPLATES``), all funnel their rendered source
  through it.

That speed trick is only safe while the generated code stays trivially
auditable, so this rule:

* statically re-renders every handler template × substitution pair it
  can resolve (direct ``gen(op, TEMPLATE, kw=const)`` calls and one
  level of ``def alu(op, expr): gen(op, ALU, expr=expr)``-style
  wrappers) and checks the resulting AST against a whitelist — no
  imports, no global or nonlocal writes, no attribute access outside
  the declared ``emu``/``ins`` namespace, no calls except the
  arithmetic helpers;
* re-renders every *block* statement template (the module-level
  template tables of the three superhandler modules) with dummy
  substitutions and checks each against that module's declared
  name/call/attribute whitelist (``BLOCK_PROFILES``) — a template the
  profile cannot account for is a violation, as is a profiled table
  that has gone missing or non-literal;
* flags any ``exec``/``eval``/``compile`` call outside the two
  sanctioned sites anywhere in ``src/repro/`` — new exec sites need
  their own audit story before they can exist, and a bare ``compile()``
  is one too (``types.FunctionType`` runs its code object with no
  ``exec``); ``re.compile`` and other attribute calls are not builtins
  and pass;
* flags substitutions it cannot resolve to a constant (an unverifiable
  template is treated as a violation, not a pass).
"""

from __future__ import annotations

import ast

from simcheck.rules import in_scope, register
from simcheck.rules._util import dotted_name

#: Functions generated handlers may call.
ALLOWED_CALLS = {"_s32", "_div", "_rem", "int", "abs", "min", "max"}

#: Attribute namespace the handlers may touch (load or store).
ALLOWED_ATTRS = {
    "emu": {"x", "f", "_taken", "_mem_addr"},
    "ins": {"rs1", "rs2", "rd", "imm", "pc", "target"},
}

#: Globals the rendered code may read (module ns handed to exec + locals
#: the templates themselves bind).
ALLOWED_NAMES = {"MASK", "INT_MIN", "_s32", "_div", "_rem",
                 "INSTRUCTION_SIZE", "emu", "ins", "x", "f", "a", "b",
                 "i", "value", "run", "int", "abs", "min", "max",
                 "True", "False", "None"}

#: Names the rendered code may bind.
ALLOWED_STORES = {"run", "x", "f", "a", "b", "i", "value"}

_FORBIDDEN_NODES = (ast.Import, ast.ImportFrom, ast.Global,
                    ast.Nonlocal, ast.ClassDef, ast.Lambda, ast.Await,
                    ast.Yield, ast.YieldFrom, ast.Try, ast.With,
                    ast.Delete, ast.Starred)


def _audit_generated(source: str) -> list:
    """Whitelist problems with one rendered handler source."""
    problems = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [f"rendered handler does not parse: {exc.msg}"]
    for node in ast.walk(tree):
        if isinstance(node, _FORBIDDEN_NODES):
            problems.append(
                f"forbidden construct {type(node).__name__}")
        elif isinstance(node, ast.Attribute):
            base = node.value
            if not (isinstance(base, ast.Name)
                    and base.id in ALLOWED_ATTRS
                    and node.attr in ALLOWED_ATTRS[base.id]):
                problems.append(
                    f"attribute access outside the declared namespace: "
                    f"`{dotted_name(node) or node.attr}`")
        elif isinstance(node, ast.Call):
            func = node.func
            if not (isinstance(func, ast.Name)
                    and func.id in ALLOWED_CALLS):
                problems.append(
                    f"call outside the whitelist: "
                    f"`{dotted_name(func) or '?'}()`")
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                if node.id not in ALLOWED_STORES:
                    problems.append(f"binds disallowed name "
                                    f"`{node.id}`")
            elif node.id not in ALLOWED_NAMES:
                problems.append(f"reads undeclared name `{node.id}`")
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Store):
            if not (isinstance(node.value, ast.Name)
                    and node.value.id in ALLOWED_STORES):
                problems.append("subscript store outside x/f register "
                                "files")
    return problems


# ---------------------------------------------------------------------------
# Block superhandler audit (superblock / timingblock / streamblock).
#
# The three block-rendering modules keep their statement templates in
# module-level tables; rendering only substitutes literals (integers,
# or the handful of whitelisted names below).  SC003 re-renders every
# template with dummy substitutions and checks the AST against the
# owning module's profile.  A profiled table that is missing or not a
# static string literal is itself a violation — the audit must never
# silently skip a template it cannot see.
# ---------------------------------------------------------------------------

class _DummySubst(dict):
    """Placeholder values for re-rendering: names where the renderer
    substitutes names, a positive integer everywhere else."""

    def __missing__(self, key):
        return "1"


_DUMMY = _DummySubst(
    fu="alu",        # port-group name (string-subscripts port_hot)
    mem="addr",      # record tails: "addr" or "None"
    taken="False",   # record tails: "True"/"False"
    next="t",        # jalr renders the computed target name
    fimm="1.0",      # fli immediate (repr of a float)
    i="0",           # instruction-object binding suffix (_I0)
    fwd="n_fwd",     # timing tail: forward counter name or 0
)

#: AST shapes that may never appear in rendered block code (a superset
#: of the handler list minus none — blocks add no new statement kinds).
_BLOCK_FORBIDDEN = _FORBIDDEN_NODES

#: path-suffix -> audit profile.  ``tables`` lists the module-level
#: template tables (dict-of-str or plain str constants); the remaining
#: sets whitelist what the rendered ASTs may contain.
BLOCK_PROFILES = {
    "repro/functional/superblock.py": {
        "tables": ("CORRECT_TEMPLATES", "WP_STORE_TEMPLATES",
                   "BRANCH_TESTS", "PROLOGUE_MEM", "DI_TAIL",
                   "WR_TAIL", "WP_ITEM_TAIL", "RETURN_NEXT"),
        "names": {"emu", "x", "f", "append", "seq", "addr", "mw",
                  "mw_get", "sh", "idx", "a", "b", "v", "t", "di",
                  "r", "it", "_new", "_DI", "_WR", "_WP", "_I0",
                  "_s32", "_div", "_rem", "_MA", "_MF", "_INF",
                  "_NINF", "_NAN", "_b2f", "_f2b", "int", "abs",
                  "min", "max", "float"},
        "stores": {"a", "b", "v", "addr", "sh", "idx", "t", "di",
                   "r", "it", "mw", "mw_get"},
        "substores": {"x", "f", "mw"},
        "calls": {"_s32", "_div", "_rem", "min", "max", "abs", "int",
                  "float", "mw_get", "append", "_new", "_MA", "_MF",
                  "_b2f", "_f2b"},
        "dotted_calls": set(),
        "attrs": {"emu.memory", "emu.memory._words", "mw.get"},
        "attr_stores": {"di.seq", "di.instr", "di.pc", "di.next_pc",
                        "di.taken", "di.mem_addr", "di.wp_trace",
                        "r.instr", "r.pc", "r.mem_addr", "r.next_pc",
                        "it.instr", "it.pc", "it.mem_addr"},
        "attrs_any": set(),
    },
    "repro/core/timingblock.py": {
        # STEP_TEMPLATES holds the steps the stream renderer shares, so
        # they are audited once, here.
        "tables": ("STEP_TEMPLATES", "TIMING_TEMPLATES"),
        "names": {"buf", "i", "regready", "fetch_cycle", "fetch_used",
                  "disp_cycle", "disp_used", "com_cycle", "com_used",
                  "cur_line", "last_retire", "rob_rel", "rob_popleft",
                  "rob_append", "lq_rel", "lq_popleft", "lq_append",
                  "sq_rel", "sq_popleft", "sq_append", "sb_get",
                  "store_buffer", "access_data", "l1i_access",
                  "port_hot", "penalty", "fetch_c", "dispatch_req",
                  "oldest", "dispatch_c", "ready", "t", "best_cycle",
                  "issue_c", "a", "b", "c", "free_alu", "addr",
                  "drain", "n_fwd", "complete", "retire_req",
                  "retire_c", "len", "min"},
        "stores": {"penalty", "fetch_cycle", "fetch_used", "fetch_c",
                   "dispatch_req", "oldest", "disp_cycle",
                   "disp_used", "dispatch_c", "ready", "t",
                   "best_cycle", "issue_c", "a", "b", "c", "addr",
                   "drain", "n_fwd", "complete", "retire_req",
                   "com_cycle", "com_used", "retire_c", "last_retire",
                   "cur_line", "free_alu"},
        "substores": {"free_alu", "regready", "store_buffer"},
        "calls": {"l1i_access", "len", "rob_popleft", "lq_popleft",
                  "sq_popleft", "min", "sb_get", "access_data",
                  "rob_append", "lq_append", "sq_append"},
        "dotted_calls": {"free_alu.index"},
        "attrs": set(),
        "attr_stores": set(),
        "attrs_any": {"mem_addr"},
    },
    "repro/wrongpath/streamblock.py": {
        "tables": ("STREAM_TEMPLATES",),
        "names": {"items", "i", "wp_ready", "regready", "mshrs",
                  "access_data", "l1d_contains", "fetch_cycle",
                  "fetch_used", "resolution", "executed", "wp_get", "wa",
                  "rec", "fetch_c", "ready", "t", "issue_c", "addr",
                  "complete", "ok", "earliest", "len", "min"},
        "stores": {"wp_get", "wa", "rec", "ready", "t", "issue_c",
                   "addr", "complete", "ok", "earliest", "executed"},
        "substores": {"wp_ready"},
        "calls": {"wp_get", "min", "len", "l1d_contains", "access_data"},
        "dotted_calls": {"mshrs.remove", "mshrs.append"},
        "attrs": {"wp_ready.get"},
        "attr_stores": set(),
        "attrs_any": {"mem_addr"},
    },
}


def _block_profile(src):
    path = src.path.replace("\\", "/")
    for suffix, profile in BLOCK_PROFILES.items():
        if path.endswith(suffix):
            return profile
    return None


def _parse_fragment(rendered: str):
    """Parse one dummy-rendered template.

    Templates come in three shapes: plain statement runs (parse
    as-is), function heads ending in ``:`` (need a body), and
    fragments containing ``return`` (legal only inside a function).
    Returns the parsed tree or the SyntaxError message string.
    """
    try:
        return ast.parse(rendered)
    except SyntaxError:
        pass
    try:
        return ast.parse(rendered + "\n    pass")
    except SyntaxError:
        pass
    shell = "def run():\n" + "\n".join(
        "    " + line for line in rendered.split("\n"))
    try:
        return ast.parse(shell)
    except SyntaxError as exc:
        return exc.msg or "invalid syntax"


def _audit_block(rendered: str, profile: dict) -> list:
    """Whitelist problems with one dummy-rendered block template."""
    tree = _parse_fragment(rendered)
    if isinstance(tree, str):
        return [f"rendered template does not parse: {tree}"]
    problems = []
    # Attribute nodes accounted for by a dotted whitelist entry (a
    # sanctioned method call's func, or a sanctioned dotted read) are
    # skipped when visited on their own.
    accounted = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            if dotted_name(node.func) in profile["dotted_calls"]:
                accounted.add(id(node.func))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            dotted = dotted_name(node)
            if dotted in profile["attrs"]:
                accounted.add(id(node))
                inner = node.value
                while isinstance(inner, ast.Attribute):
                    accounted.add(id(inner))
                    inner = inner.value
    for node in ast.walk(tree):
        if isinstance(node, _BLOCK_FORBIDDEN):
            problems.append(f"forbidden construct {type(node).__name__}")
        elif isinstance(node, ast.FunctionDef):
            if node.name != "run":
                problems.append(f"defines function `{node.name}` "
                                f"(only `run` is sanctioned)")
        elif isinstance(node, ast.Attribute):
            if id(node) in accounted:
                continue
            dotted = dotted_name(node)
            if isinstance(node.ctx, ast.Store):
                if dotted not in profile["attr_stores"]:
                    problems.append(f"attribute store outside the "
                                    f"record tails: `{dotted or node.attr}`")
            elif node.attr not in profile["attrs_any"]:
                problems.append(f"attribute access outside the declared "
                                f"namespace: `{dotted or node.attr}`")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if dotted_name(func) not in profile["dotted_calls"]:
                    problems.append(f"call outside the whitelist: "
                                    f"`{dotted_name(func) or '?'}()`")
            elif not (isinstance(func, ast.Name)
                      and func.id in profile["calls"]):
                problems.append(f"call outside the whitelist: "
                                f"`{dotted_name(func) or '?'}()`")
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                if node.id not in profile["stores"]:
                    problems.append(f"binds disallowed name `{node.id}`")
            elif node.id not in profile["names"]:
                problems.append(f"reads undeclared name `{node.id}`")
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Store):
            if not (isinstance(node.value, ast.Name)
                    and node.value.id in profile["substores"]):
                problems.append("subscript store outside the declared "
                                "mutable arguments")
    return problems


def _block_tables(src, profile):
    """Yield (name, lineno, templates | None) for each profiled table.

    ``templates`` is a list of (label, template source); None means the
    table is missing or not a statically visible string literal.
    """
    assigns = {}
    for node in src.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            assigns[node.targets[0].id] = node
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                node.value is not None:
            assigns[node.target.id] = node
    for name in profile["tables"]:
        node = assigns.get(name)
        if node is None:
            yield name, 1, None
            continue
        value = node.value
        if isinstance(value, ast.Constant) and \
                isinstance(value.value, str):
            yield name, node.lineno, [(name, value.value)]
        elif isinstance(value, ast.Dict):
            templates, ok = [], True
            for key, val in zip(value.keys, value.values):
                label = key.value if isinstance(key, ast.Constant) \
                    else "?"
                if isinstance(val, ast.Constant) and \
                        isinstance(val.value, str):
                    templates.append((f"{name}[{label!r}]", val.value))
                else:
                    ok = False
            yield name, node.lineno, templates if ok else None
        else:
            yield name, node.lineno, None


def _template_assigns(func: ast.FunctionDef) -> dict:
    """UPPERCASE string constants that look like handler templates."""
    templates = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str) and \
                "def run(" in node.value.value:
            templates[node.targets[0].id] = node.value.value
    return templates


def _wrapper_map(func: ast.FunctionDef, templates: dict) -> dict:
    """``alu``-style wrappers: name -> (template, keyword, line span).

    Detects ``def w(op, X): gen(op, TEMPLATE, kw=X)``.  The span lets
    the substitution scan skip the forwarding ``gen`` call inside the
    wrapper body (it is audited through the wrapper's call sites).
    """
    wrappers = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.FunctionDef) or \
                len(node.args.args) != 2:
            continue
        second = node.args.args[1].arg
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and \
                    isinstance(call.func, ast.Name) and \
                    call.func.id == "gen" and len(call.args) >= 2 and \
                    isinstance(call.args[1], ast.Name) and \
                    call.args[1].id in templates:
                for kw in call.keywords:
                    if isinstance(kw.value, ast.Name) and \
                            kw.value.id == second and kw.arg:
                        wrappers[node.name] = (
                            call.args[1].id, kw.arg,
                            (node.lineno,
                             getattr(node, "end_lineno", node.lineno)))
    return wrappers


def _substitutions(func: ast.FunctionDef, templates: dict,
                   wrappers: dict):
    """Yield (call node, template source, {kw: const}, resolvable)."""
    wrapper_spans = [span for _, _, span in wrappers.values()]
    for node in ast.walk(func):
        if not isinstance(node, ast.Call) or \
                not isinstance(node.func, ast.Name):
            continue
        name = node.func.id
        if name == "gen" and len(node.args) >= 2:
            if any(lo <= node.lineno <= hi for lo, hi in wrapper_spans):
                continue  # the forwarding call inside a wrapper body
            tmpl = node.args[1]
            if isinstance(tmpl, ast.Name) and tmpl.id in templates:
                subst, ok = {}, True
                for kw in node.keywords:
                    if kw.arg and isinstance(kw.value, ast.Constant) \
                            and isinstance(kw.value.value, str):
                        subst[kw.arg] = kw.value.value
                    elif kw.arg:
                        ok = False
                yield node, templates[tmpl.id], subst, ok
        elif name in wrappers:
            tmpl_name, kw_name, _ = wrappers[name]
            if len(node.args) >= 2 and \
                    isinstance(node.args[1], ast.Constant) and \
                    isinstance(node.args[1].value, str):
                yield (node, templates[tmpl_name],
                       {kw_name: node.args[1].value}, True)
            else:
                yield node, templates[tmpl_name], {}, False


@register
class ExecHandlerRule:
    id = "SC003"
    title = ("exec-handler safety: generated handler and block "
             "templates pass an AST whitelist; no exec/eval/compile "
             "outside the sanctioned sites")
    severity = "error"

    def check(self, src, project):
        if not in_scope(src, self.id):
            return

        profile = _block_profile(src)

        builders = [node for node in ast.walk(src.tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "_build_handlers"]
        sanctioned_spans = [(b.lineno,
                             getattr(b, "end_lineno", b.lineno))
                            for b in builders]
        if src.path.replace("\\", "/").endswith(
                "repro/functional/superblock.py"):
            # The second sanctioned exec site: the block compiler the
            # three superhandler modules funnel their rendered source
            # through (audited via BLOCK_PROFILES below).
            sanctioned_spans += [
                (node.lineno, getattr(node, "end_lineno", node.lineno))
                for node in ast.walk(src.tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_compile_block"]

        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("exec", "eval", "compile"):
                if not any(lo <= node.lineno <= hi
                           for lo, hi in sanctioned_spans):
                    yield src.finding(
                        "SC003", node,
                        f"`{node.func.id}()` outside the sanctioned "
                        f"sites (_build_handlers / superblock's "
                        f"_compile_block); dynamic code needs an "
                        f"audit story (see SC003 in DESIGN.md §8)")

        if profile is not None:
            for name, lineno, templates in _block_tables(src, profile):
                if templates is None:
                    yield src.finding(
                        "SC003", lineno,
                        f"block template table `{name}` is missing or "
                        f"not a static string table; the rendered "
                        f"code cannot be audited")
                    continue
                for label, template in templates:
                    try:
                        rendered = template.format_map(_DUMMY)
                    except (KeyError, IndexError, ValueError):
                        yield src.finding(
                            "SC003", lineno,
                            f"template {label} has a placeholder the "
                            f"audit cannot dummy-render")
                        continue
                    for problem in _audit_block(rendered, profile):
                        yield src.finding(
                            "SC003", lineno,
                            f"block template {label} violates the "
                            f"whitelist: {problem}")

        for builder in builders:
            templates = _template_assigns(builder)
            wrappers = _wrapper_map(builder, templates)
            if not templates:
                yield src.finding(
                    "SC003", builder,
                    "_build_handlers has an exec site but no "
                    "statically visible templates; simcheck cannot "
                    "audit the generated code")
                continue
            for call, template, subst, ok in _substitutions(
                    builder, templates, wrappers):
                if not ok and not subst:
                    yield src.finding(
                        "SC003", call,
                        "handler substitution is not a string "
                        "constant; the generated code cannot be "
                        "audited statically")
                    continue
                try:
                    rendered = template.format(**subst)
                except (KeyError, IndexError):
                    yield src.finding(
                        "SC003", call,
                        f"template placeholder mismatch for "
                        f"substitution {sorted(subst)}")
                    continue
                for problem in _audit_generated(rendered):
                    yield src.finding(
                        "SC003", call,
                        f"generated handler violates the whitelist: "
                        f"{problem}")
