"""Spans and work counters recorded around the calls into capdetect's layers.

The tracer replaces public functions at the names each module looks them up
by (for example ``detect.blahut_arimoto_batch`` and
``protocol_sim.blahut_arimoto_batch`` separately), so the caller of every
call is known without touching the program. Each wrapper records a span
(name, start, end, parent span, request id) and, for the solver entry
points, the exact work counters carried by the return value. Spans stay in
memory until :meth:`Tracer.metrics` reduces them.
"""

import threading
import time

import numpy as np

# (module, attribute, span name). Module names are relative to capdetect.
_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "reproduce_figure", "cli.reproduce_figure"),
    ("cli", "detect_capacity", "detect.detect_capacity"),
    ("cli", "detect_pauli_qubit", "detect.detect_pauli_qubit"),
    ("cli", "holevo_gad_p1", "detect.holevo_gad_p1"),
    ("cli", "pseudoclassicality", "detect.pseudoclassicality"),
    ("cli", "dephasing_detected", "detect.dephasing_detected"),
    ("cli", "von_mises_expected_capacity", "detect.von_mises"),
    ("cli", "detect_from_samples", "protocol_sim.detect_from_samples"),
    ("cli", "blahut_arimoto_batch", "infotheory.ba_batch.fig2"),
    ("detect", "detect_pauli_qubit", "detect.detect_pauli_qubit"),
    ("detect", "detect_from_transitions", "detect.detect_from_transitions"),
    ("detect", "conditional_probs", "qcore.conditional_probs"),
    ("detect", "eigenbasis", "qcore.eigenbasis"),
    ("detect", "weakly_symmetric_capacity", "infotheory.weakly_symmetric"),
    ("detect", "binary_capacity", "infotheory.binary_capacity"),
    ("detect", "blahut_arimoto", "infotheory.ba_scalar.engine"),
    ("detect", "blahut_arimoto_batch", "infotheory.ba_batch.engine"),
    ("protocol_sim", "conditional_probs", "qcore.conditional_probs"),
    ("protocol_sim", "sample_transition", "protocol_sim.sample_transition"),
    ("protocol_sim", "detect_from_transitions", "detect.detect_from_transitions"),
    ("protocol_sim", "blahut_arimoto_batch", "infotheory.ba_batch.bootstrap"),
    ("qcore", "is_cptp", "qcore.is_cptp"),
)

# (module, class, method, span name); from_dict is a classmethod.
_METHODS = (
    ("channels", "ChannelSpec", "from_dict", "channels.from_dict"),
    ("channels", "ChannelSpec", "build", "channels.build"),
    ("detect", "DetectionConfig", "resolve_bases", "detect.resolve_bases"),
)

FIGURES = ("fig1", "fig2", "fig3", "fig4", "suppl_stretched")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "tag")

    def __init__(self, name, start, parent, request, tag=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.tag = tag


class Tracer:
    """Installs wrappers into the capdetect modules and collects spans.

    ``paused`` lets the benchmark's own checks call the program without
    being recorded.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.ba = []  # (caller, shape class, iterations array, unconverged count, batch?)
        self.ws_calls = 0
        self.ws_hits = 0
        self.request = 0
        self.paused = False
        self._local = threading.local()
        self._main_stack = None
        self._saved = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _open(self, name, tag=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a worker thread of the CLI's pool: the main thread is blocked
            # in the call that fanned the work out, so that span is the parent
            parent = self._main_stack[-1]
        else:
            parent = None
        if name == "cli.main" and parent is None:
            self.request += 1
        span = Span(name, time.perf_counter(), parent, self.request, tag)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, name, post=None, tagger=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = tracer._open(name, tagger(args, kwargs) if tagger else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if post is not None:
                post(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters read from return values --------------------------------
    def _post_for(self, name):
        if name.startswith("infotheory.ba_batch."):
            caller = name.rsplit(".", 1)[1]

            def post(args, kwargs, out):
                t = np.asarray(args[0])
                tol = kwargs.get("tol_bits", args[1] if len(args) > 1 else 1e-9)
                _, _, iterations, gaps = out
                shape = "2x2" if t.shape[1:] == (2, 2) else "nxn"
                self.ba.append((caller, shape, np.asarray(iterations).copy(),
                                int(np.sum(np.asarray(gaps) > tol)), True))
            return post
        if name.startswith("infotheory.ba_scalar."):
            caller = name.rsplit(".", 1)[1]

            def post(args, kwargs, out):
                t = np.asarray(args[0])
                shape = "2x2" if t.shape == (2, 2) else "nxn"
                self.ba.append((caller, shape, np.array([out.iterations]),
                                int(not out.converged), False))
            return post
        if name == "infotheory.weakly_symmetric":
            def post(args, kwargs, out):
                self.ws_calls += 1
                self.ws_hits += out is not None
            return post
        return None

    # -- install / remove -------------------------------------------------
    def install(self):
        for mod, attr, name in _FUNCTIONS:
            module = self.modules[mod]
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # the name is gone in this version of the program
            tagger = None
            if name == "cli.reproduce_figure":
                tagger = lambda args, kwargs: args[0] if args else kwargs.get("which")
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, self._post_for(name), tagger))
        for mod, cls_name, meth, name in _METHODS:
            cls = getattr(self.modules[mod], cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                continue
            self._saved.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, meth, self._wrap(raw, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reduction --------------------------------------------------------
    def ba_counters(self) -> dict:
        """Exact solver work counters, split into 2x2 and larger matrices."""
        out = {}
        for shape in ("2x2", "nxn"):
            rows = [r for r in self.ba if r[1] == shape]
            iters = np.concatenate([r[2] for r in rows]) if rows else np.zeros(0, int)
            out[f"infotheory.ba_matrices_{shape}"] = int(iters.size)
            out[f"infotheory.ba_iters_total_{shape}"] = int(iters.sum())
            for q, label in ((50, "p50"), (99, "p99")):
                value = float(np.percentile(iters, q, method="lower")) if iters.size else 0.0
                out[f"infotheory.ba_iters_{label}_{shape}"] = value
            out[f"infotheory.ba_iters_max_{shape}"] = int(iters.max()) if iters.size else 0
            out[f"infotheory.ba_unconverged_{shape}"] = int(sum(r[3] for r in rows))
            out[f"infotheory.batch_rounds_{shape}"] = int(
                sum(int(r[2].max()) for r in rows if r[4] and r[2].size)
            )
        return out

    def metrics(self) -> dict:
        """Per-layer metrics: busy and self times in seconds, call counts and
        the solver counters. Self time is a span's duration minus the union
        of the intervals its children cover."""
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)

        def self_time(span):
            kids = sorted(((c.start, c.end) for c in children.get(id(span), ())))
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in kids:
                lo, hi = max(lo, span.start), min(hi, span.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            return (span.end - span.start) - covered

        total = {}
        calls = {}
        selft = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.name in ("cli.main", "cli.reproduce_figure", "detect.detect_from_transitions",
                          "protocol_sim.detect_from_samples"):
                selft[s.name] = selft.get(s.name, 0.0) + self_time(s)

        requests = max(calls.get("cli.main", 0), 1)
        m = {
            "cli.self_s": selft.get("cli.main", 0.0) + selft.get("cli.reproduce_figure", 0.0),
            "channels.spec_s": total.get("channels.from_dict", 0.0),
            "channels.spec_calls": calls.get("channels.from_dict", 0),
            "channels.build_calls": calls.get("channels.build", 0),
            "channels.builds_per_request": calls.get("channels.build", 0) / requests,
            "qcore.is_cptp_s": total.get("qcore.is_cptp", 0.0),
            "qcore.is_cptp_calls": calls.get("qcore.is_cptp", 0),
            "detect.resolve_bases_s": total.get("detect.resolve_bases", 0.0),
            "qcore.eigenbasis_s": total.get("qcore.eigenbasis", 0.0),
            "qcore.eigenbasis_calls": calls.get("qcore.eigenbasis", 0),
            "qcore.conditional_probs_s": total.get("qcore.conditional_probs", 0.0),
            "qcore.conditional_probs_calls": calls.get("qcore.conditional_probs", 0),
            "detect.holevo_gad_p1_s": total.get("detect.holevo_gad_p1", 0.0),
            "detect.holevo_gad_p1_calls": calls.get("detect.holevo_gad_p1", 0),
            "detect.von_mises_s": total.get("detect.von_mises", 0.0),
            "detect.von_mises_calls": calls.get("detect.von_mises", 0),
            "detect.pseudoclassicality_s": total.get("detect.pseudoclassicality", 0.0),
            "detect.detect_from_transitions_self_s": selft.get("detect.detect_from_transitions", 0.0),
            "infotheory.ba_s.engine": total.get("infotheory.ba_batch.engine", 0.0)
            + total.get("infotheory.ba_scalar.engine", 0.0),
            "infotheory.ba_s.bootstrap": total.get("infotheory.ba_batch.bootstrap", 0.0),
            "infotheory.ba_s.fig2": total.get("infotheory.ba_batch.fig2", 0.0),
            "infotheory.weakly_symmetric_calls": self.ws_calls,
            "infotheory.weakly_symmetric_hits": self.ws_hits,
            "infotheory.weakly_symmetric_hit_ratio": self.ws_hits / self.ws_calls if self.ws_calls else 0.0,
            "infotheory.binary_capacity_s": total.get("infotheory.binary_capacity", 0.0),
            "infotheory.binary_capacity_calls": calls.get("infotheory.binary_capacity", 0),
            "protocol_sim.sample_s": total.get("protocol_sim.sample_transition", 0.0),
            "protocol_sim.sample_calls": calls.get("protocol_sim.sample_transition", 0),
            "protocol_sim.bootstrap_self_s": selft.get("protocol_sim.detect_from_samples", 0.0),
            "protocol_sim.resample_matrices": int(
                sum(r[2].size for r in self.ba if r[0] == "bootstrap")
            ),
        }
        for fig in FIGURES:
            m[f"cli.figure_s.{fig}"] = sum(
                s.end - s.start for s in self.spans
                if s.name == "cli.reproduce_figure" and s.tag == fig
            )
        m.update(self.ba_counters())
        return m
