"""Per-layer tracing of bdpants from outside the package.

`Tracer.install` wraps every public function of every `bdpants`
submodule and rebinds each name that refers to one of them, in every
bdpants module, including names bound by `from .x import f` (such as
`coords.flag_curve` and `verify.is_generic`).  `Tracer.uninstall` puts
the originals back.  Each wrapped call records a span: name, parent,
operation index, start, end and self time (its duration minus the part
of it its child spans cover).  Calls, self time and total time are
summed per operation and span name; the spans themselves are kept in
memory for the first few operations only (one operation makes about
10^4 of them) and written out by `dump`.

Span names are `<module>.<function>`, except that `linalg.det` spans
are split by backend (`linalg.det.int` for all-integer input,
`linalg.det.float` for float input, `linalg.det.rational` otherwise)
and `coords.assemble_phi` spans by method.
"""

import functools
import inspect
import sys
from fractions import Fraction
from time import perf_counter_ns

PACKAGE = "bdpants"


def package_modules():
    """The loaded bdpants package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions(module):
    """Public functions defined in the module itself."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def _bits(x):
    if type(x) is int:
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self, keep_ops=2):
        self.names = []
        self._name_ids = {}
        # per operation: {name id: [calls, self ns, total ns]}
        self.per_op = []
        self.op = -1
        # spans of the first `keep_ops` operations, for `dump`:
        # (span, parent, op, name id, start ns, end ns, self ns)
        self.keep_ops = keep_ops
        self.spans = []
        self._stack = []
        self._next_span = 0
        # work counters of the determinant kernel
        self.distinct_int = set()
        self.max_size = 0
        self.max_bits = 0
        self.det_calls = 0
        self.closed_form_dets = 0
        # original function -> its wrapper
        self.wrappers = {}
        self._patched = []

    # -- spans -------------------------------------------------------------

    def start_op(self, op):
        self.op = op
        while len(self.per_op) <= op:
            self.per_op.append({})

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _call(self, name_id, fn, args, kwargs):
        # stack entry: [span id, start ns, ns covered by child spans]
        span = self._next_span
        self._next_span += 1
        frame = [span, 0, 0]
        self._stack.append(frame)
        frame[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - frame[1]
            own = duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            entry = self.per_op[self.op].get(name_id)
            if entry is None:
                entry = self.per_op[self.op][name_id] = [0, 0, 0]
            entry[0] += 1
            entry[1] += own
            entry[2] += duration
            if self.op < self.keep_ops:
                parent = self._stack[-1][0] if self._stack else -1
                self.spans.append((span, parent, self.op, name_id, frame[1], end, own))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        if (layer, name) == ("linalg", "det"):
            ids = {kind: self._name_id(f"linalg.det.{kind}")
                   for kind in ("int", "rational", "float")}

            @functools.wraps(fn)
            def wrapper(rows, *args, **kwargs):
                start = perf_counter_ns()
                kind = tracer._det_input(rows)
                inspected = perf_counter_ns() - start
                result = tracer._call(ids[kind], fn, (rows,) + args, kwargs)
                start = perf_counter_ns()
                tracer.max_bits = max(tracer.max_bits, _bits(result))
                if tracer._stack:
                    # the inspection is the tracer's work, not the caller's
                    tracer._stack[-1][2] += inspected + perf_counter_ns() - start
                return result
        elif (layer, name) == ("coords", "assemble_phi"):
            ids = {m: self._name_id(f"coords.assemble_phi.{m}")
                   for m in ("closed_form", "generic")}
            other = self._name_id("coords.assemble_phi")
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                method = bound.arguments.get("method")
                before = tracer.det_calls
                try:
                    return tracer._call(ids.get(method, other), fn, args, kwargs)
                finally:
                    if method == "closed_form":
                        tracer.closed_form_dets += tracer.det_calls - before
        else:
            name_id = self._name_id(f"{layer}.{name}")

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name_id, fn, args, kwargs)
        return wrapper

    def _det_input(self, rows):
        self.det_calls += 1
        self.max_size = max(self.max_size, len(rows))
        has_float = has_rational = False
        for row in rows:
            for x in row:
                if isinstance(x, float):
                    has_float = True
                elif type(x) is not int:
                    has_rational = True
                self.max_bits = max(self.max_bits, _bits(x))
        kind = "float" if has_float else "rational" if has_rational else "int"
        if kind == "int":
            self.distinct_int.add(tuple(tuple(row) for row in rows))
        return kind

    def install(self):
        """Wrap every public bdpants function wherever a module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for name, fn in public_functions(module):
                if fn not in self.wrappers:
                    self.wrappers[fn] = self._wrap(layer, name, fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self.wrappers:
                    setattr(module, name, self.wrappers[obj])
                    self._patched.append((module, name, obj))

    def uninstall(self):
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched = []

    # -- results ---------------------------------------------------------

    def totals(self, factors):
        """{name: [calls, self ns, total ns]} over all operations, the
        times of operation i scaled by factors[i] (see refloop)."""
        out = {}
        for op, stats in enumerate(self.per_op):
            for name_id, (calls, own, total) in stats.items():
                entry = out.setdefault(self.names[name_id], [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += own * factors[op]
                entry[2] += total * factors[op]
        return out

    def dump(self, path):
        """Write the kept spans as tab-separated lines, in the order they
        ended."""
        with open(path, "w") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n")
            for span, parent, op, name_id, start, end, own in self.spans:
                out.write(f"{span}\t{parent}\t{op}\t{self.names[name_id]}\t"
                          f"{start}\t{end}\t{own}\n")
