"""Timing from outside the program: wrappers installed at the names callers use.

Nothing under ``src/`` is instrumented.  A call point is a function or method
replaced, for the duration of one job, at the attribute its callers look up:
``bulkgrow.experiments.write_vtk`` for a module global bound by ``from ...
import``, ``bulkgrow.sparsela:SpdFactor.solve`` for a method.

Two recorders use the points:

* :class:`Probe` times the coarse boundaries of a job (setup calls, steps,
  cells) for the untraced end-to-end numbers.
* :class:`Tracer` records a span per call into each layer; :func:`layer_totals`
  turns the spans into busy time, self time and call counts.
"""

from contextlib import contextmanager
import importlib

from hostspeed import net as clock


def resolve(owner):
    """``"pkg.mod"`` -> module, ``"pkg.mod:Class"`` -> class."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(points):
    """Install ``make(original)`` at each ``(owner, attribute)`` point.

    ``points`` is a sequence of ``((owner, attribute), make)``.  Originals are
    restored on exit, in reverse order, so patches nest.
    """
    saved = []
    try:
        for (owner, attr), make in points:
            obj = resolve(owner)
            original = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
            saved.append((obj, attr, original))
            setattr(obj, attr, make(original))
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


class Probe:
    """Coarse job timings.

    * setup: wall time inside the outermost calls to the setup points;
    * cell: one stepping unit (a ``Stepper``, or one level of one stability
      mode), opened by a call to the cell point;
    * call: each call to a step point, attributed to the open cell.

    By default a step is one call and a cell's clock starts at its first
    call.  With ``per_cell`` a step is a whole cell, timed from the cell call
    to its last step-point call, so one-off work before the first call
    (assembly, spectrum, factorization of a stability level) is inside it.
    ``returned`` keeps the last result of each point, for the output checks.

    Endpoints are kept as read from :func:`clock`; the timing methods take
    ``ref``, a map from those to reported seconds (the identity by default).
    """

    def __init__(self, setup, cell, step, per_cell=False):
        self.spec = (tuple(setup), cell, tuple(step))
        self.per_cell = per_cell
        self.setups = []           # [start, end] of each outermost setup call
        self.calls = []            # [start, end] of every step-point call, in order
        self.cells = []            # [start, first_call_end, last_call_end]
        self.returned = {}
        self._setup_depth = 0
        self._cell_call = None

    def points(self):
        setup, cell, step = self.spec
        return (
            [(p, self._timed_setup(p[1])) for p in setup]
            + [(cell, self._cell_marker())]
            + [(p, self._timed_step(p[1])) for p in step]
        )

    def _timed_setup(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self._setup_depth += 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._setup_depth -= 1
                    if self._setup_depth == 0:
                        self.setups.append((start, clock()))
                self.returned[name] = result
                return result
            return wrapper
        return make

    def _cell_marker(self):
        def make(fn):
            def wrapper(*args, **kwargs):
                self._cell_call = clock()
                self.cells.append(None)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _timed_step(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                end = clock()
                self.calls.append((start, end))
                if self.cells[-1] is None:
                    opened = self._cell_call if self.per_cell else start
                    self.cells[-1] = [opened, end, end]
                else:
                    self.cells[-1][2] = end
                self.returned[name] = result
                return result
            return wrapper
        return make

    def setup_s(self, ref=float):
        """Time inside the outermost setup calls, summed."""
        return sum(ref(b) - ref(a) for a, b in self.setups)

    def steps(self, ref=float):
        """Step durations: the calls, or with ``per_cell`` the cells."""
        if self.per_cell:
            return [ref(c[2]) - ref(c[0]) for c in self.cells if c]
        return [ref(b) - ref(a) for a, b in self.calls]

    def first_step_s(self, ref=float):
        """Time from each cell's start to the end of its first call, summed."""
        return sum(ref(c[1]) - ref(c[0]) for c in self.cells if c)

    def stepping_s(self, ref=float):
        """Time from each cell's start to its last call, summed over cells."""
        return sum(ref(c[2]) - ref(c[0]) for c in self.cells if c)


class Tracer:
    """Spans (name, start, end, parent) kept in memory, one list per field.

    ``points`` maps ``(owner, attribute)`` to a span name; ``hooks`` maps a
    span name to ``hook(tracer, args, result)``, run after the span closes,
    for counts that need the call's arguments (LU fill, bytes written).
    """

    def __init__(self, points, hooks=None):
        self.names = dict(points)
        self.hooks = hooks or {}
        self.name, self.start, self.end, self.parent = [], [], [], []
        self.values = {}           # hook outputs: name -> list of numbers
        self._open = []

    def points(self):
        return [(point, self._span(name)) for point, name in self.names.items()]

    def _span(self, name):
        hook = self.hooks.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(self.name)
                self.name.append(name)
                self.parent.append(self._open[-1] if self._open else -1)
                self.end.append(0.0)
                self._open.append(idx)
                self.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[idx] = clock()
                    self._open.pop()
                if hook is not None:
                    hook(self, args, result)
                return result
            return wrapper
        return make

    def record(self, key, value):
        self.values.setdefault(key, []).append(value)

    def rows(self):
        """Spans as dicts, in start order."""
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]


def layer_totals(names, starts, ends, parents, layer_of):
    """Per-layer ``[busy_s, self_s, calls]`` from span arrays.

    Self time is a span's duration minus the durations of its direct
    children.  Busy time counts only spans with no ancestor in the same
    layer, so nested calls within one layer are not counted twice.
    """
    n = len(names)
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    totals = {}
    for i in range(n):
        layer = layer_of[names[i]]
        dur = ends[i] - starts[i]
        t = totals.setdefault(layer, [0.0, 0.0, 0])
        t[1] += dur - child[i]
        t[2] += 1
        p = parents[i]
        while p >= 0 and layer_of[names[p]] != layer:
            p = parents[p]
        if p < 0:
            t[0] += dur
    return totals
