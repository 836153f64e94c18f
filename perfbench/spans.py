"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the calls into each ``rimcert`` module, from the
benchmark's side only: the recorder replaces a function under the name its
caller binds it to and restores the original afterwards.  Nothing inside
``rimcert`` changes, so the report and batch bytes are the same traced or
not.

A span is (name, start, end, parent, spec, attrs).  ``parent`` is the index
of the enclosing span in the same process, ``spec`` the id of the spec
being certified.  Spans stay in memory; a forked batch worker appends its
spans to a per-process file when each row ends, because its memory dies
with it.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    spec: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _enumeration_attrs(args, kwargs, result) -> dict:
    subgroup = kwargs.get("subgroup", args[1] if len(args) > 1 else ())
    return {
        "role": "meridian" if subgroup else "order",
        "cosets_defined": result.cosets_defined,
        "complete": result.complete,
        "reason": result.reason,
    }


def _collapse_attrs(args, kwargs, result) -> dict:
    return {"gens": result.ngens, "relator_length": result.total_relator_length()}


def _surgery_attrs(args, kwargs, result) -> dict:
    return {"relator_length": result.total_relator_length()}


def _verdict_attrs(args, kwargs, result) -> dict:
    return {"stage": result.certificate["stage"], "status": result.status}


def _batch_attrs(args, kwargs, result) -> dict:
    return {"errors": sum(1 for row in result["rows"] if "error" in row)}


# (module that binds the name, name, span name, attribute extractor).
# ``rimcert.certify`` as an attribute is the function, which shadows the
# submodule, hence import_module everywhere.
PROBES = (
    ("rimcert.report", "certify", "report.certify", None),
    ("rimcert.report", "surgered_group", "surgery.surgered_group", _surgery_attrs),
    ("rimcert.report", "certify_cyclic", "certify.certify_cyclic", _verdict_attrs),
    ("rimcert.report", "alexander_polynomial", "invariants.alexander_polynomial", None),
    ("rimcert.report", "normal_invariant_report", "invariants.normal_invariant_report", None),
    ("rimcert.report", "braid_closure_diagram", "diagrams.braid_closure_diagram", None),
    ("rimcert.certify", "abelian_invariants", "abelian.abelian_invariants", None),
    ("rimcert.certify", "collapse_presentation", "groups.collapse_presentation", _collapse_attrs),
    ("rimcert.certify", "todd_coxeter", "enumeration.todd_coxeter", _enumeration_attrs),
    ("rimcert.batch", "run_batch", "batch.run_batch", _batch_attrs),
    ("rimcert.batch", "batch_json", "batch.batch_json", None),
    # The name batch workers call report.certify by.
    ("rimcert.batch", "certify", "report.certify", None),
)
# Just the batch rows, to time them in the workers of an untraced pass.
ROW_PROBES = (("rimcert.batch", "certify", "report.certify", None),)


class Recorder:
    """Wraps the probe points while installed; spans accumulate in memory."""

    def __init__(self, worker_dir: str | None = None, probes=PROBES):
        self.probes = probes
        self.spans: list[Span] = []
        self.spec: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._forked = False
        self._worker_dir = worker_dir

    def _enter_process(self) -> None:
        # A forked batch worker inherits the parent's spans and its open
        # run_batch span; start it afresh so each row flushes on its own.
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._forked = True
            self.spans = []
            self._stack = []

    def _wrap(self, fn, name: str, attrs):
        def traced(*args, **kwargs):
            self._enter_process()
            if name == "report.certify":
                self.spec = args[0].label()
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.spec)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if name == "report.certify":
                    self.spec = None
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            if self._forked and not self._stack:
                self._flush_worker()
            return result

        return traced

    def _flush_worker(self) -> None:
        if self._worker_dir is None:
            return
        path = os.path.join(self._worker_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")
        self.spans.clear()

    def install(self) -> None:
        for module_name, attr, name, attrs in self.probes:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def merge_workers(self) -> None:
        """Append the spans forked workers wrote; their files are removed.

        Each flushed row starts with its root span at index 0, so parent
        indices are shifted by where that row lands in this list.
        """
        if self._worker_dir is None:
            return
        for entry in sorted(os.listdir(self._worker_dir)):
            path = os.path.join(self._worker_dir, entry)
            with open(path, encoding="utf-8") as f:
                for line in f:
                    span = Span(**json.loads(line))
                    if span.parent is None:
                        base = len(self.spans)
                    else:
                        span.parent += base
                    self.spans.append(span)
            os.remove(path)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another in one thread, so the part
    of the interval they cover is the sum of their durations.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own
