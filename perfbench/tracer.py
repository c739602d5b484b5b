"""Outside-in tracer for the qdesk modules.

`Tracer.installed()` replaces every public function of the named modules,
and every public method of the classes they define, with a timing wrapper;
on exit it puts the originals back. Because qdesk modules call each other
through module attributes (`sc.apply_gate`, module-global `mps_norm`), the
wrappers also see internal calls.

Spans are not stored one per call. Each (function, parent) pair keeps a
running [calls, total seconds, self seconds] triple, so barren-sweep's
millions of `apply_gate` calls cost a dictionary update each. Self time is
span time minus the time covered by child spans.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

ROOT = "<root>"


def _apply_gate_bytes(args, kwargs, result):
    # amplitude array read, gate matrix read, amplitude array written;
    # computed from array sizes, not measured
    state = args[0] if args else kwargs["state"]
    gate = args[1] if len(args) > 1 else kwargs["gate"]
    return {"simcore.apply_gate.bytes_computed":
            state.nbytes + gate.nbytes + result.nbytes}


def _ode_nfev(args, kwargs, result):
    return {"varqml.ode.nfev": int(result.nfev)}


def _returned_ops(args, kwargs, result):
    # mps_norm and ProjectorMPS.apply return (value, ops) when asked to
    if isinstance(result, tuple):
        return {"tnet.contract_ops": int(result[1])}
    return {}


def _samples(args, kwargs, result):
    return {"dequant.samples_drawn": int(getattr(result, "size", 1))}


# work counted at the boundary, keyed by traced function name
WORK_HOOKS = {
    "simcore.apply_gate": _apply_gate_bytes,
    "varqml.ode": _ode_nfev,
    "tnet.mps_norm": _returned_ops,
    "tnet.ProjectorMPS.apply": _returned_ops,
    "dequant.SQVector.sample": _samples,
}

# names imported into a module from a library, traced under an alias
ALIASES = {("varqml", "solve_ivp"): "ode"}


def traceable(module):
    """(owner, attribute, traced name) for every public function defined
    in `module`, every public method of its classes, and the aliases."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in sorted(vars(module).items()):
        if (short, name) in ALIASES:
            out.append((module, name, f"{short}.{ALIASES[short, name]}"))
            continue
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, f"{short}.{name}"))
        elif inspect.isclass(obj):
            for mname, meth in sorted(vars(obj).items()):
                if not mname.startswith("_") and inspect.isfunction(meth):
                    out.append((obj, mname, f"{short}.{name}.{mname}"))
    return out


class Tracer:
    """Per-(function, parent) span aggregates and work counters."""

    def __init__(self, modules, clock=time.perf_counter):
        self.modules = list(modules)
        self.clock = clock
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.work = defaultdict(int)
        self._stack = [[ROOT, 0.0]]  # [name, child seconds]

    def reset(self):
        """Drop all aggregates; installed wrappers keep working."""
        self.spans.clear()
        self.work.clear()
        del self._stack[1:]
        self._stack[0][1] = 0.0

    def _wrap(self, fn, name):
        clock, stack, spans = self.clock, self._stack, self.spans
        hook = WORK_HOOKS.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                agg = spans[name, parent[0]]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
            if hook is not None:
                for key, val in hook(args, kwargs, result).items():
                    self.work[key] += val
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traceable attribute; restore all of them on exit."""
        saved = []
        try:
            for module in self.modules:
                for owner, attr, name in traceable(module):
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_function(self):
        """{name: {"calls", "total_s", "self_s"}} summed over parents."""
        out = {}
        for (name, _parent), (calls, total, self_s) in self.spans.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
        return out

    def per_module_self(self):
        out = defaultdict(float)
        for name, row in self.per_function().items():
            out[name.split(".", 1)[0]] += row["self_s"]
        return dict(out)

    def table(self):
        """JSON-ready rows of the (function, parent) aggregates."""
        return [
            {"function": name, "parent": parent, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (name, parent), (calls, total, self_s)
            in sorted(self.spans.items())
        ]
