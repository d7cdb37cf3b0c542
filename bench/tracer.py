"""Spans around the public entry points of each mhcvse layer.

The tracer wraps module attributes and class methods of the installed
package from outside it, records one span per call (name, start, end,
parent span, tape nodes added) in memory, and puts every original back on
``uninstall``. Nothing inside ``mhcvse`` knows it is being traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import mhcvse.cli
from mhcvse import Model, Tape

# (module, attribute, span name). Several modules import the same function
# by name; each binding is wrapped so every caller is seen.
FUNCTIONS = [
    ("mhcvse.model", "encode_image", "encoders.image"),
    ("mhcvse.model", "encode_text", "encoders.text"),
    ("mhcvse.model", "attend_and_pool", "attention"),
    ("mhcvse.model", "gcn_forward", "consensus.gcn"),
    ("mhcvse.model", "consensus_embed", "consensus.head"),
    ("mhcvse.model", "fuse", "fusion"),
    ("mhcvse.model", "contrastive_loss", "losses"),
    ("mhcvse.model", "kl_loss", "losses"),
    ("mhcvse.model", "total_loss", "losses"),
    ("mhcvse.training", "adam_step", "autodiff.adam"),
    ("mhcvse.training", "train_epoch", "training.epoch"),
    ("mhcvse.training", "evaluate", "training.val_eval"),
    ("mhcvse.data", "load_dataset", "data.load_dataset"),
    ("mhcvse.cli", "load_dataset", "data.load_dataset"),
    ("mhcvse.model", "save_model", "model.save"),
    ("mhcvse.cli", "save_model", "model.save"),
    ("mhcvse.model", "load_model", "model.load"),
    ("mhcvse.cli", "load_model", "model.load"),
    ("mhcvse.evaluation", "rank_candidates", "evaluation.rank"),
    ("mhcvse.cli", "rank_candidates", "evaluation.rank"),
]

METHODS = [
    (Model, "loss_terms", "autodiff.forward"),
    (Model, "embed_dataset", "model.embed_dataset"),
    (Model, "embed_image", "model.embed_image"),
    (Model, "embed_caption", "model.embed_caption"),
    (Tape, "backward", "autodiff.backward"),
]


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, nodes]
        self._open: list[int] = []
        self._tape: Tape | None = None
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = tracer._tape
            nodes0 = len(tape) if tape is not None else 0
            idx = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append([name, time.perf_counter(), 0.0, parent, 0])
            tracer._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._open.pop()
                rec = tracer.spans[idx]
                rec[2] = time.perf_counter()
                if tape is not None:
                    rec[4] = len(tape) - nodes0
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for module, attr, name in FUNCTIONS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.span(name, getattr(mod, attr)))
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self.span(name, getattr(cls, attr)))
        self._patch(mhcvse.cli, "main", self._traced_main(mhcvse.cli.main))
        enter, leave = Tape.__enter__, Tape.__exit__
        tracer = self

        def traced_enter(tape):
            out = enter(tape)
            tracer._tape = tape
            return out

        def traced_exit(tape, *exc):
            tracer._tape = None
            return leave(tape, *exc)

        self._patch(Tape, "__enter__", traced_enter)
        self._patch(Tape, "__exit__", traced_exit)
        return self

    def _traced_main(self, main):
        def traced(argv=None):
            return self.span(f"cli.{argv[0]}", main)(argv)
        return traced

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # aggregation

    def totals(self, since: int = 0, end: int | None = None,
               within: str | None = None) -> dict:
        """Per span name: calls, seconds and nodes of spans[since:end].

        With ``within``, only spans that have an ancestor of that name.
        """
        out: dict[str, list] = {}
        spans = self.spans
        for i in range(since, len(spans) if end is None else end):
            name, begin, finish, parent, nodes = spans[i]
            if within is not None:
                while parent >= 0 and spans[parent][0] != within:
                    parent = spans[parent][3]
                if parent < 0:
                    continue
            agg = out.setdefault(name, [0, 0.0, 0])
            agg[0] += 1
            agg[1] += finish - begin
            agg[2] += nodes
        return {k: {"calls": v[0], "s": v[1], "nodes": v[2]} for k, v in out.items()}

    def dump(self, path) -> None:
        """Write every span as [name, start_s, end_s, parent, nodes]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "nodes"],
                       "spans": self.spans}, fh)
