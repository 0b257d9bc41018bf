# simcheck-fixture: SC003
"""Exec-handler violations: an eval outside _build_handlers, a compile()
whose code object runs without exec, a template substitution that
escapes the whitelist, and one that cannot be resolved to a constant."""

import types


def decode(payload):
    return eval(payload)  # expect: SC003


def load(source):
    code = compile(source, "<load>", "exec")  # expect: SC003
    return types.FunctionType(code.co_consts[0], {})


def _build_handlers(compute):
    handlers = {}

    ALU = (
        "def run(emu, ins):\n"
        "    x = emu.x\n"
        "    a = x[ins.rs1]\n"
        "    b = x[ins.rs2]\n"
        "    x[ins.rd] = {expr}\n"
    )

    def gen(op, template, **subst):
        namespace = {}
        exec(template.format(**subst), namespace)
        handlers[op] = namespace["run"]

    gen("add", ALU, expr="a + b")
    gen("leak", ALU, expr="__import__('os').getpid()")  # expect: SC003
    gen("oracle", ALU, expr=compute())  # expect: SC003
    return handlers
