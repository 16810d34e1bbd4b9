"""Spans and counters recorded from outside restr, for the traced run.

The tracer replaces each entry point at the name its caller looks up
(``restr.decoder.fuse`` for ``decoder.forward``, ``restr.tensor.matmul`` for
every ``T.matmul``, ...) and puts the original back on ``uninstall``. Stage
spans do not overlap: a stage's self time excludes the stages nested in it
(``metrics.report`` around ``metrics.predict`` around the forward stages), so
the stages add up to the unit time. Op spans nest inside stages and are
counted separately. Spans are summed in memory and read out at the end.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# stage name -> (module, attribute) of the entry points it wraps
STAGES = {
    "encoders.vision": [("restr.decoder", "vision_encode")],
    "encoders.language": [("restr.decoder", "language_encode")],
    "fusion.project": [("restr.decoder", "project")],
    "fusion.fuse": [("restr.decoder", "fuse")],
    "decoder.patch": [("restr.decoder", "patch_predict"),
                      ("restr.decoder", "mask_features")],
    "decoder.decode": [("restr.decoder", "decode_pixels")],
    "training.loss": [("restr.training", "segmentation_loss")],
    "tensor.backward": [("restr.tensor", "backward")],
    "training.adamw": [("restr.training.AdamW", "step")],
    "metrics.predict": [("restr.metrics", "predicted_masks")],
    "metrics.report": [("restr.metrics", "evaluate_model")],
}
# op tag -> public function in restr.tensor
OPS = {"matmul": "matmul", "softmax": "softmax", "layer_norm": "layer_norm",
       "gelu": "gelu", "add": "add", "hadamard": "hadamard", "scale": "scale",
       "sigmoid": "sigmoid", "concat": "concat", "slice": "slice_axis",
       "reshape": "reshape", "transpose": "transpose",
       "upsample2x_bilinear": "upsample2x_bilinear", "bce": "bce",
       "sum_all": "sum_all"}
ATTENTION = ("restr.transformer", "self_attention")


def _resolve(path: str):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


class Tracer:
    """Accumulates stage self time, op time and counts while ``recording``."""

    def __init__(self, fusion_macs_per_sample: int):
        self.expected_fusion_macs = fusion_macs_per_sample
        self.recording = False
        self.stage_s: dict[str, float] = defaultdict(float)
        self.stage_macs: dict[str, int] = defaultdict(int)
        self.op_s: dict[str, float] = defaultdict(float)
        self.op_calls: dict[str, int] = defaultdict(int)
        self.attention_calls = 0
        self.fuse_mismatches: list[str] = []
        self.units = 0
        self.unit_s = 0.0
        self.missing: list[str] = []
        self._open: list[float] = []  # nested-stage time of each open stage
        self._saved: list[tuple[object, str, object]] = []
        self._entries = self._entry_points()

    def _entry_points(self):
        entries = [(mod, attr, self._stage(name, attr))
                   for name, points in STAGES.items() for mod, attr in points]
        entries += [("restr.tensor", fn, self._op(tag)) for tag, fn in OPS.items()]
        entries.append((*ATTENTION, self._count_attention))
        return entries

    def add_units(self, samples: int, seconds: float) -> None:
        self.units += samples
        self.unit_s += seconds

    def install(self) -> None:
        missing = []
        for path, attr, make in self._entries:
            owner = _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        self.missing = missing

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _stage(self, name: str, attr: str):
        from restr import tensor as T

        def make(fn):
            def traced(*args, **kwargs):
                if not self.recording:
                    return fn(*args, **kwargs)
                self._open.append(0.0)
                start = perf_counter()
                try:
                    with T.count_macs() as counter:
                        out = fn(*args, **kwargs)
                finally:
                    spent = perf_counter() - start
                    self.stage_s[name] += spent - self._open.pop()
                    if self._open:
                        self._open[-1] += spent
                self.stage_macs[name] += counter.macs
                if attr == "fuse":
                    self._check_fuse(args[0], counter.macs)
                return out
            return traced
        return make

    def _check_fuse(self, z_v, macs: int) -> None:
        """A7 from outside: fuse MACs equal the closed form per sample."""
        samples = 1
        for dim in z_v.shape[:-2]:
            samples *= dim
        if macs != samples * self.expected_fusion_macs:
            self.fuse_mismatches.append(
                f"fuse counted {macs} MACs, profile() gives "
                f"{samples} x {self.expected_fusion_macs}")

    def _op(self, tag: str):
        def make(fn):
            def traced(*args, **kwargs):
                if not self.recording:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.op_s[tag] += perf_counter() - start
                    self.op_calls[tag] += 1
            return traced
        return make

    def _count_attention(self, fn):
        def traced(*args, **kwargs):
            if self.recording:
                self.attention_calls += 1
            return fn(*args, **kwargs)
        return traced

    def metrics(self, untraced_p50_s: float, traced_p50_s: float,
                train: bool) -> dict[str, float]:
        """Per-unit values: per step on train, per sample on eval."""
        n = max(self.units, 1)
        unit_ms = 1e3 * self.unit_s / n
        out = {f"{name}_ms": 1e3 * self.stage_s.get(name, 0.0) / n for name in STAGES}
        covered = sum(out.values())
        out["training.other_ms"] = unit_ms - covered if train else 0.0
        out["tensor.op_calls"] = sum(self.op_calls.values()) / n
        out["tensor.matmul_calls"] = self.op_calls.get("matmul", 0) / n
        out["transformer.attention_calls"] = self.attention_calls / n
        out["tensor.macs"] = sum(self.stage_macs.values()) / n
        out["fusion.macs"] = self.stage_macs.get("fusion.fuse", 0) / n
        for tag in OPS:
            out[f"tensor.op_ms.{tag}"] = 1e3 * self.op_s.get(tag, 0.0) / n
        out["trace.unit_ms"] = unit_ms
        out["trace.stage_sum_pct"] = 100.0 * covered / unit_ms if unit_ms else 0.0
        out["trace.overhead_pct"] = (100.0 * (traced_p50_s / untraced_p50_s - 1.0)
                                     if untraced_p50_s else 0.0)
        out["trace.missing"] = len(self.missing)
        return out
