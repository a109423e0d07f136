"""Run the qrff CLI in this process with spans recorded around chosen functions.

Usage::

    python3 perfbench/traced_cli.py OUT.json NAME[,NAME...] <qrff CLI arguments>

Each NAME is ``<module>.<attribute path>`` inside the ``qrff`` package, such
as ``qsim.swap_test`` or ``pipeline.PreparedPipeline.mean_estimate``; naming a
class wraps its constructor. The wrappers are set as module and class
attributes before the CLI starts, so the program's source is untouched. A name
that no longer resolves is listed as absent instead of failing the run.

Besides the span of each call (name, start, end, parent), the trace counts at
the same boundaries:

- gates: ``GateOp``s handed to ``qsim.apply_circuit``/``apply_gate``;
- qubits: the widest state (any object with an integer ``n_qubits``) passed to
  or returned from a wrapped call;
- accept: the probability returned by ``qsim.postselect``.

Each count is added to every span open at that moment, so they are inclusive.
The spans are kept in memory and written to OUT.json when the CLI returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: wrapped on every traced run because the counts above are read from them
COUNTING_HOOKS = ("qsim.apply_circuit", "qsim.apply_gate", "qsim.postselect")

# span record fields
NAME, START, END, PARENT, GATES, QUBITS, ACCEPT_SUM, ACCEPT_N = range(8)


def _width(obj) -> int:
    n = getattr(obj, "n_qubits", None)
    return n if isinstance(n, int) else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, stack: list[int], field: int, amount) -> None:
        for i in stack:
            self.spans[i][field] += amount

    def _widen(self, stack: list[int], objs) -> None:
        width = max((_width(o) for o in objs), default=0)
        if width:
            for i in stack:
                rec = self.spans[i]
                rec[QUBITS] = max(rec[QUBITS], width)

    def wrap(self, name: str, fn):
        spans = self.spans
        short = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, 0.0, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = time.perf_counter()
            try:
                if short == "apply_circuit" and len(args) >= 2:
                    gates = list(args[1])
                    args = (args[0], gates) + args[2:]
                    self._add(stack, GATES, len(gates))
                elif short == "apply_gate":
                    self._add(stack, GATES, 1)
                self._widen(stack, args + tuple(kwargs.values()))
                result = fn(*args, **kwargs)
                parts = result if isinstance(result, tuple) else (result,)
                self._widen(stack, parts)
                if short == "postselect" and len(parts) == 2:
                    self._add(stack, ACCEPT_SUM, float(parts[1]))
                    self._add(stack, ACCEPT_N, 1)
                return result
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return traced


def _resolve(name: str):
    """Return ``(owner, attribute, object)`` for a dotted name, or None."""
    module_name, *path = name.split(".")
    try:
        obj = importlib.import_module(f"qrff.{module_name}")
    except ImportError:
        return None
    owner, attr = None, None
    for attr in path:
        owner, obj = obj, getattr(obj, attr, None)
        if obj is None:
            return None
    return (owner, attr, obj) if path and callable(obj) else None


def install(tracer: Tracer, names) -> list[str]:
    """Wrap each named function in place; return the names that do not resolve."""
    import qrff.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for k, m in sys.modules.items() if k == "qrff" or k.startswith("qrff.")]
    absent = []
    for name in dict.fromkeys(names):
        target = _resolve(name)
        if target is None:
            absent.append(name)
            continue
        owner, attr, obj = target
        if isinstance(obj, type):
            init = obj.__dict__.get("__init__")
            if init is None:
                absent.append(name)
                continue
            obj.__init__ = tracer.wrap(name, init)
        elif isinstance(owner, type):
            fn = owner.__dict__.get(attr)
            if not callable(fn):
                absent.append(name)
                continue
            setattr(owner, attr, tracer.wrap(name, fn))
        else:
            # rebind every module-level alias, e.g. ``from .kernel import exact_posterior``
            wrapped = tracer.wrap(name, obj)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, wrapped)
    return absent


def main(argv: list[str]) -> int:
    out_path, names, cli_args = argv[0], argv[1].split(","), argv[2:]
    tracer = Tracer()
    absent = install(tracer, [*COUNTING_HOOKS, *names])
    import qrff.cli

    try:
        return qrff.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "absent": absent}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
