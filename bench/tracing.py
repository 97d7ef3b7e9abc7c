"""Spans and counts recorded around the public functions of `audiocap`.

The tracer wraps functions and methods from outside the package: it
replaces each module attribute (and each `from x import y` binding in the
other `audiocap` modules) with a wrapper, and puts every original back on
`uninstall`. A span has a name, a start, an end, the span that was open when
it began, and the round it belongs to. Durations are summed per name, both
inclusive and self (duration minus the time covered by child spans).
Autodiff primitives are counted but get no span of their own, so their time
is part of the self time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name). "Class.method" attributes patch the class.
SPAN_TARGETS = (
    ("audiocap.autodiff", "backward", "autodiff.backward"),
    ("audiocap.model", "CaptionerModel.caption_logits", "model.forward"),
    ("audiocap.model", "CaptionerModel.encode", "model.encode"),
    ("audiocap.model", "CaptionerModel.decode", "model.decode"),
    ("audiocap.model", "EncoderLayer.__call__", "model.encoder_layer"),
    ("audiocap.model", "DecoderLayer.__call__", "model.decoder_layer"),
    ("audiocap.model", "MultiHeadAttention.__call__", "model.attention"),
    ("audiocap.model", "FeedForward.__call__", "model.ffn"),
    ("audiocap.model", "LayerNorm.__call__", "model.layer_norm"),
    ("audiocap.training", "label_smoothed_ce", "training.loss"),
    ("audiocap.optim", "Adam.step", "optim.adam"),
    ("audiocap.optim", "Adam.zero_grad", "optim.zero_grad"),
    ("audiocap.word2vec", "train_skipgram", "word2vec.train"),
    ("audiocap.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("audiocap.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("audiocap.decoding", "beam_search_decode", "decoding.beam"),
    ("audiocap.audio", "compute_log_mel", "audio.log_mel"),
    ("audiocap.metrics", "evaluate_captions", "metrics.eval"),
    ("audiocap.synth", "make_corpus", "synth.corpus"),
)

# the public primitives of audiocap.autodiff; Tensor's operators call these
# through the module, so operator sugar is counted too
PRIMITIVES = (
    "add", "sub", "neg", "mul", "matmul", "reshape", "transpose", "getitem",
    "concat", "sum_", "mean", "exp", "log", "power", "sigmoid", "logsigmoid",
    "gelu", "softmax", "log_softmax", "dropout", "embedding", "layer_norm",
)

MAX_KEPT_SPANS = 20000


def _decode_rows(tracer, args, kwargs, result):
    ids = args[1] if len(args) > 1 else kwargs["token_ids"]
    shape = getattr(ids, "shape", None) or (len(ids), len(ids[0]))
    tracer.counts["model.decode_rows"] += shape[0] * shape[1]
    tracer.counts["model.decode_last_rows"] += shape[0]


def _beam_tokens(tracer, args, kwargs, result):
    ids = result[0] if isinstance(result, tuple) else result
    tracer.counts["decoding.tokens"] += len(ids) - 1  # <sos> excluded


def _saved_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["checkpoint.bytes"] += os.path.getsize(path)


AFTER_CALL = {
    "model.decode": _decode_rows,
    "decoding.beam": _beam_tokens,
    "checkpoint.save": _saved_bytes,
}


class Tracer:
    """Holds spans and counts in memory; `install` / `uninstall` swap the
    wrappers in and out so that traced and untraced rounds can alternate."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.round = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ----- wrappers -----------------------------------------------------
    def _span(self, name, fn):
        after = AFTER_CALL.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                duration = end - start
                tracer.inclusive[name] += duration
                tracer.self_time[name] += duration - child
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append(
                        (span_id, parent, tracer.round, name, start, end))
                else:
                    tracer.dropped_spans += 1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["autodiff.ops"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----- patching -----------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, original, wrapped):
        name = original.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("audiocap") and getattr(mod, name, None) is original:
                self._set(mod, name, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span in SPAN_TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._span(span, cls.__dict__[meth]))
            else:
                original = getattr(mod, attr)
                self._replace_function(original, self._span(span, original))
        autodiff = importlib.import_module("audiocap.autodiff")
        for prim in PRIMITIVES:
            original = getattr(autodiff, prim)
            self._replace_function(original, self._counter(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----- output -------------------------------------------------------
    def write(self, path: Path) -> None:
        """Spans (the first MAX_KEPT_SPANS) and per-name totals as JSON."""
        path.write_text(json.dumps({
            "spans": [dict(zip(("id", "parent", "round", "name", "start", "end"), s))
                      for s in self.spans],
            "dropped_spans": self.dropped_spans,
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }) + "\n", encoding="utf-8")
