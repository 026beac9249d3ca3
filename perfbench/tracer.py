"""Per-layer tracing of itco, installed from outside the program.

A layer is a public function or method of an itco module. ``Tracer.install``
replaces it, in every loaded itco module that holds the name (so names
imported with ``from .x import y`` are caught where they are looked up),
with a wrapper that records calls, total seconds and self seconds: total
minus the time of traced layers running inside it. ``Tracer.restore`` puts
every original back.

numerics primitives are counted, not timed, to keep the overhead low. A
primitive call counts when it is taped (its ``tape`` argument is not None)
and no other counted primitive ran inside it, so composites such as
``gru_cell`` are not counted but their parts are: the count equals the
number of nodes the tape records.

A target the program no longer has is listed in ``absent`` and reported as
zero, not raised, so the benchmark keeps working across refactors.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import weakref

SPAN_LAYERS = (
    "corpus.load_corpus",
    "corpus.normalize_utterance",
    "corpus.windows_of",
    "cli.corpus_hash",
    "model.EncoderParams.encode_node",
    "objective.utterance_loss",
    "numerics.Tape.backward",
    "numerics.sgd_apply",
    "trainer.train",
    "trainer.detect_dead_symbols",
    "trainer.clone_symbols",
    "trainer.evaluate_on_corpus",
    "trainer.save_checkpoint",
    "trainer.load_checkpoint",
    "evaluation.label_frames",
    "evaluation.majority_tag",
    "evaluation.evaluate",
    "evaluation.agreement_rate",
    "evaluation.symbol_stats",
)

# public numerics functions that take a tape but record no node
NOT_PRIMITIVES = frozenset({"watch"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Layer spans and primitive counters for one process."""

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.primitives: dict[str, int] = {}
        self.absent: list[str] = []
        self.encode = {"train_s": 0.0, "infer_s": 0.0, "windows": 0, "infer_windows": 0}
        self.windows_built = 0
        self.windows_used = 0
        self.checkpoint_bytes = 0
        self._inner: list[float] = []  # child-span seconds, one slot per open span
        self._child_seen = False
        self._seen_inputs: dict[int, weakref.ref] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, layer, fn, on_exit=None):
        stats = self.spans.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        inner = self._inner
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            inner.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = inner.pop()
                stats["calls"] += 1
                stats["s"] += dt
                stats["self_s"] += dt - nested
                if inner:
                    inner[-1] += dt
            if on_exit is not None:
                on_exit(args, kwargs, result, dt)
            return result

        return wrapped

    def _counter(self, name, fn):
        self.primitives.setdefault(name, 0)
        counts = self.primitives

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if _arg(args, kwargs, 0, "tape") is None:
                return fn(*args, **kwargs)
            self._child_seen = False
            try:
                return fn(*args, **kwargs)
            finally:
                if not self._child_seen:
                    counts[name] += 1
                self._child_seen = True  # the enclosing primitive is a composite

        return wrapped

    def _on_encode(self, args, kwargs, result, dt):
        side = _arg(args, kwargs, 1, "side")
        frames = _arg(args, kwargs, 2, "frames")
        taped = _arg(args, kwargs, 3, "tape") is not None
        rows = frames.shape[0] if getattr(frames, "ndim", 0) == 3 else 1
        self.encode["train_s" if taped else "infer_s"] += dt
        self.encode["windows"] += rows
        if not taped:
            self.encode["infer_windows"] += rows
        if side == "confirm":
            # every window reaches the confirm side once per pass; count each
            # input batch once, however often it is fed (training epochs)
            seen = self._seen_inputs.get(id(frames))
            if seen is None or seen() is not frames:
                self._seen_inputs[id(frames)] = weakref.ref(frames)
                self.windows_used += rows

    def _on_windows(self, args, kwargs, result, dt):
        self.windows_built += len(result)

    def _on_save(self, args, kwargs, result, dt):
        self.checkpoint_bytes += os.path.getsize(_arg(args, kwargs, 1, "path"))

    # -- install / restore ----------------------------------------------

    def _patch(self, owner, attr, original, replacement):
        """Replace `original` under `attr` in `owner` and, when `owner` is a
        module, in every other loaded itco module that imported it by name."""
        owners = [owner]
        if not inspect.isclass(owner):
            owners += [
                mod for key, mod in sorted(sys.modules.items())
                if key.startswith("itco.") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, replacement)

    def install(self) -> None:
        from itco import numerics

        hooks = {
            "model.EncoderParams.encode_node": self._on_encode,
            "corpus.windows_of": self._on_windows,
            "trainer.save_checkpoint": self._on_save,
        }
        for layer in SPAN_LAYERS:
            module_name, *path = layer.split(".")
            owner = sys.modules.get(f"itco.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = owner is not None and vars(owner).get(path[-1])
            if not callable(original):
                self.absent.append(layer)
                continue
            layer_name = layer.replace("EncoderParams.", "")
            wrapped = self._span(layer_name, original, hooks.get(layer))
            self._patch(owner, path[-1], original, wrapped)

        for name in getattr(numerics, "__all__", ()):
            fn = getattr(numerics, name, None)
            if name in NOT_PRIMITIVES or not inspect.isfunction(fn):
                continue
            params = list(inspect.signature(fn).parameters)
            if params and params[0] == "tape":
                self._patch(numerics, name, fn, self._counter(name, fn))
        if not self.primitives:
            self.absent.append("numerics.primitives")

    def restore(self) -> None:
        """Put every original back, in reverse order of installation."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def report(self, wall_s: float, import_s: float) -> dict:
        """Raw counters plus the time that neither the import of itco nor a
        traced layer accounts for."""
        attributed = sum(stats["self_s"] for stats in self.spans.values())
        return {
            "spans": self.spans,
            "primitives": self.primitives,
            "taped_primitives": sum(self.primitives.values()),
            "encode": self.encode,
            "windows_built": self.windows_built,
            "windows_used": self.windows_used,
            "checkpoint_bytes": self.checkpoint_bytes,
            "absent": self.absent,
            "wall_s": wall_s,
            "import_s": import_s,
            "unattributed_s": wall_s - import_s - attributed,
        }
