"""The functions of src/k3pencil that no CLI command enters.

    python3 tools/trace_unused.py

Runs, in this process and under ``sys.settrace``, ``k3pencil all``, the data
views ``lines --s 1|-1`` and ``picard --fiber generic|s1|s-1``, and every
command of ``perfbench/workloads.py``'s ``pass_commands(workload, seed)``
for the workloads ``locus``, ``configuration`` and ``queries`` and seeds 1
and 2, each command once.  The reports go nowhere.  It then prints each
function and lambda defined in ``src/k3pencil`` whose code none of these
commands entered, as ``module.py:line qualified.name``, and a count on
stderr.  Calls made while the package is imported count as entered.
Comprehensions are not listed.  Standard library only; byte code is not
written, so nothing is left under ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "k3pencil")
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

DATA_VIEWS = (
    ["all"],
    ["lines", "--s", "1"],
    ["lines", "--s", "-1"],
    ["picard", "--fiber", "generic"],
    ["picard", "--fiber", "s1"],
    ["picard", "--fiber", "s-1"],
)


def _defined(code: types.CodeType):
    """The function and lambda code objects nested in code."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if not const.co_name.startswith("<") or const.co_name == "<lambda>":
                yield const
            yield from _defined(const)


def main() -> int:
    entered = set()

    def trace(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_qualname))

    sys.settrace(trace)
    try:
        from k3pencil import cli
        from workloads import WORKLOADS, pass_commands

        commands = [list(argv) for argv in DATA_VIEWS]
        for workload in WORKLOADS:
            for seed in (1, 2):
                for _, argv in pass_commands(workload, seed):
                    if argv not in commands:
                        commands.append(argv)
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        sys.settrace(None)

    total = missing = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        for code in sorted(_defined(module), key=lambda c: c.co_firstlineno):
            total += 1
            if (path, code.co_firstlineno, code.co_qualname) not in entered:
                missing += 1
                print(f"{name}:{code.co_firstlineno} {code.co_qualname}")
    print(f"{len(commands)} commands; {missing} of {total} functions never entered", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
