"""Span tracing of revmap's public functions, installed from outside.

Tracer wraps every plain function named in ``revmap.__all__``, plus
``revmap.cli.main``, in each revmap module namespace that binds it, so
calls between modules and within a module (``build_netlist`` calling
``check_circuit``) both go through the wrapper.  Leaving the ``with``
block puts every original attribute back.

A span is (layer, start, end, parent, command): ``parent`` is the index of
the enclosing span or -1, ``command`` the index of the enclosing
``cli.main`` call in ``commands``.  A layer is named after the defining
module and function, e.g. ``ir.validate_circuit``.  Counts of work done
are read from the return values of a few layers (see OBSERVERS).
"""

import functools
import inspect
import sys
import time
from collections import Counter


def _slots(counts, args, result):
    counts["slotting.slots"] += len(result.slots)
    widest = max(len(slot.gates) for slot in result.slots)
    counts["slotting.max_slot_gates"] = max(counts["slotting.max_slot_gates"], widest)


def _equivalence(counts, args, result):
    counts["sim.patterns_checked"] += result.checked
    if not result.equivalent:
        counts["sim.refutations"] += 1
        counts["sim.refutation_patterns"] += result.checked


OBSERVERS = {
    "slotting.slot_circuit": _slots,
    "sim.check_equivalence": _equivalence,
    "realfmt.write_real": lambda counts, args, result: counts.update(
        {"realfmt.real_bytes": len(result.encode())}
    ),
    "sim.check_bijectivity": lambda counts, args, result: counts.update(
        {"sim.bijectivity_states": 1 << args[0].width}
    ),
    "blif.parse_intermediate": lambda counts, args, result: counts.update(
        {"blif.gates_parsed": len(result.gates)}
    ),
    "fanout.insert_copiers": lambda counts, args, result: counts.update(
        {"fanout.copiers_added": len(result.gates) - len(args[0].gates)}
    ),
    "convert.convert_circuit": lambda counts, args, result: counts.update(
        {"convert.ancillas": result.constant_count}
    ),
}


def layer_name(fn):
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Context manager that records spans of calls into a package."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.commands = []
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def reset(self):
        """Drop the spans, commands and counts recorded so far."""
        self.spans = []
        self.commands = []
        self.counts = Counter()

    def targets(self):
        """Map each traced original function to its layer name."""
        found = {}
        for name in self.package.__all__:
            obj = getattr(self.package, name)
            if inspect.isfunction(obj):
                found[obj] = layer_name(obj)
        main = sys.modules[self.package.__name__ + ".cli"].main
        found[main] = layer_name(main)
        return found

    def __enter__(self):
        targets = self.targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        prefix = self.package.__name__
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])
                        self._patched.append((module, attr, value))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)
        opens_command = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            if opens_command:
                argv = args[0] if args else kwargs.get("argv")
                self.commands.append(" ".join(map(str, argv or ())))
                command = len(self.commands) - 1
            else:
                command = self.spans[parent][4] if parent >= 0 else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, command]
            self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def layers(self):
        """Per layer: self seconds and call count over the recorded spans."""
        self_s = Counter()
        calls = Counter()
        for name, start, end, parent, _ in self.spans:
            took = end - start
            self_s[name] += took
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= took
        return self_s, calls
