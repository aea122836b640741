"""Runtime span tracing of the bundlecurv modules, with no source edits.

``install`` replaces every public module-level function of the traced
modules, at every module attribute that binds it (``connection.partial``,
``curvature.partial`` and ``fields.partial`` are one function bound three
times), with a wrapper that records a span: an id, the parent span, the
function's label, start and end. ``FieldHandle.__call__`` is wrapped the
same way, so field evaluations are counted where they happen.

Spans are recorded only while a root span is open. The benchmark opens a
root around each timed operation (and around its set-up and census
passes), so the correctness gates it runs between operations leave no
spans. Each thread appends to its own buffer; a span opened by a pool
worker with nothing open on its own thread takes the main thread's
innermost span (``verify.run_checks``) as its parent.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("fields", "liecore", "geometry", "connection",
                  "curvature", "jacobian", "sde", "scenarios", "verify")

FIELD_CALL = "fields.FieldHandle.__call__"
POINT_FRAME = "geometry.point_frame"


class Tracer:
    """In-memory span recorder shared by all wrapped functions."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._buffers = []
        self.roots = {}          # root span id -> (kind, chart points)
        self._open_root = None

    def _state(self):
        """This thread's (open span ids, open calls per label, buffers)."""
        state = getattr(self._local, "state", None)
        if state is None:
            stack = (self._main_stack
                     if threading.get_ident() == self._main else [])
            buffers = ([], [])          # spans, point_frame keys
            state = self._local.state = (stack, defaultdict(int), buffers)
            self._buffers.append(buffers)
        return state

    def wrap(self, func, label, key_of=None):
        """A stand-in for ``func`` that records one span per call."""
        state_of, ids = self._state, self._ids
        main_stack = self._main_stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._open_root is None:
                return func(*args, **kwargs)
            stack, depth, (spans, keys) = state_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            if key_of is not None:
                keys.append((sid, key_of(*args, **kwargs)))
            nested = depth[label] > 0
            depth[label] += 1
            stack.append(sid)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[label] -= 1
                spans.append((sid, parent, label, start, end, nested))

        return functools.wraps(func)(traced)

    def root(self, kind, points):
        """Context manager: one root span of ``kind`` over ``points``."""
        return _Root(self, kind, points)

    def spans(self):
        """Every recorded span: ``(sid, parent, label, start, end, nested)``.

        ``nested`` is true when the same label was already open on the
        span's thread, so inclusive times count outermost calls only.
        """
        return [span for spans, _ in self._buffers for span in spans]

    def frame_keys(self):
        """``(span id, frame key)`` for every recorded point_frame call."""
        return [item for _, keys in self._buffers for item in keys]


class _Root:
    def __init__(self, tracer, kind, points):
        self.tracer, self.kind, self.points = tracer, kind, points

    def __enter__(self):
        tracer = self.tracer
        self.sid = next(tracer._ids)
        tracer.roots[self.sid] = (self.kind, self.points)
        tracer._main_stack.append(self.sid)
        tracer._open_root = self.sid
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._main_stack.pop()
        tracer._open_root = None
        tracer._state()[2][0].append((self.sid, 0, "root:" + self.kind,
                                      self.start, end, False))
        return False


def _frame_key(orig, point):
    return (id(orig), point.x.tobytes(), point.f.tobytes())


def install(tracer):
    """Wrap the traced modules' public functions in place."""
    modules = {name: importlib.import_module("bundlecurv." + name)
               for name in TRACED_MODULES}
    labels = {}
    for name, module in modules.items():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                labels[obj] = "%s.%s" % (name, attr)
    wrappers = {obj: tracer.wrap(obj, label,
                                 _frame_key if label == POINT_FRAME else None)
                for obj, label in labels.items()}
    binders = list(modules.values()) + [importlib.import_module("bundlecurv")]
    for module in binders:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    handle = modules["fields"].FieldHandle
    handle.__call__ = tracer.wrap(handle.__call__, FIELD_CALL)


class SpanTable:
    """Per-label totals over the spans under a chosen set of roots."""

    def __init__(self, tracer):
        spans = tracer.spans()
        self.roots = tracer.roots
        parent_of = {span[0]: span[1] for span in spans}
        children = defaultdict(list)
        for _, parent, _, start, end, _ in spans:
            if parent:
                children[parent].append((start, end))
        root_of = {sid: sid for sid in self.roots}

        def resolve(sid):
            path = []
            while sid not in root_of:
                path.append(sid)
                sid = parent_of.get(sid, 0)
                if not sid:
                    break
            root = root_of.get(sid, 0)
            for node in path:
                root_of[node] = root
            return root

        label_of = {span[0]: span[2] for span in spans}
        # label -> [(root, nested, duration, self time)]
        self.by_label = defaultdict(list)
        # (root, parent label, child label) -> calls
        self.edges = defaultdict(int)
        for sid, parent, label, start, end, nested in spans:
            covered = _union_length(children.get(sid, ()))
            root = resolve(sid)
            self.by_label[label].append((root, nested, end - start,
                                         end - start - covered))
            self.edges[(root, label_of.get(parent, "-"), label)] += 1
        self.frame_keys = defaultdict(list)
        for sid, key in tracer.frame_keys():
            self.frame_keys[resolve(sid)].append(key)

    def root_ids(self, predicate):
        return {sid for sid, (kind, _) in self.roots.items()
                if predicate(kind)}

    def calls(self, label, roots):
        return sum(1 for root, _, _, _ in self.by_label.get(label, ())
                   if root in roots)

    def inclusive(self, label, roots):
        """Seconds in ``label``, counting only its outermost calls."""
        return sum(dur for root, nested, dur, _ in
                   self.by_label.get(label, ())
                   if root in roots and not nested)

    def self_time(self, label, roots):
        """Seconds in ``label`` minus the time its child spans cover."""
        return sum(own for root, _, _, own in self.by_label.get(label, ())
                   if root in roots)

    def roots_calling(self, label, roots):
        """How many of ``roots`` contain at least one call of ``label``."""
        return len({root for root, _, _, _ in self.by_label.get(label, ())
                    if root in roots})

    def summary(self):
        """Totals per root kind and label, and parent-to-child call counts."""
        kind_of = {sid: kind.split(":")[0]
                   for sid, (kind, _) in self.roots.items()}
        labels = defaultdict(lambda: [0, 0.0, 0.0])
        for label, rows in self.by_label.items():
            for root, nested, dur, own in rows:
                row = labels["%s %s" % (kind_of.get(root, "-"), label)]
                row[0] += 1
                row[1] += 0.0 if nested else dur
                row[2] += own
        edges = defaultdict(int)
        for (root, parent, child), calls in self.edges.items():
            edges["%s %s -> %s" % (kind_of.get(root, "-"), parent,
                                   child)] += calls
        return {"calls_inclusive_self": dict(sorted(labels.items())),
                "edges": dict(sorted(edges.items()))}

    def distinct_frames(self, roots):
        """Distinct (geometry, point) keys looked up, counted per root."""
        return sum(len(set(self.frame_keys.get(root, ()))) for root in roots)

    def points(self, roots):
        return sum(self.roots[root][1] for root in roots)


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
