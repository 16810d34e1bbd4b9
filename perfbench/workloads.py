"""The benchmark's workloads: geometry, recipe, generated inputs and the
closed loops that drive restr's public functions.

Nothing here imports restr at module level: ``run.py`` times that import as
part of set-up, so restr modules are imported inside the functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# A5: the acceptance geometry that the overfit criterion trains.
A5_MODEL = {"image_h": 64, "image_w": 64, "patch_size": 8, "dim_vision": 64,
            "dim_language": 64, "dim_fusion": 64, "vision_layers": 2,
            "language_layers": 2, "fusion_layers": 2, "heads": 4,
            "fusion_variant": "cme"}
# A8: 480x480 with patch 16 gives 900 patches, 921 fused tokens.
R480_MODEL = {"image_h": 480, "image_w": 480, "patch_size": 16, "dim_vision": 16,
              "dim_language": 16, "dim_fusion": 16, "vision_layers": 1,
              "language_layers": 1, "fusion_layers": 2, "heads": 2,
              "fusion_variant": "vme"}

# Recipe shared by train_a5 and the prep runs (lr 5e-4 with a 20-step warmup
# on the 3000-step poly schedule, as `restr train` is run for A5).
BASE_LR = 5e-4
WARMUP_ITERS = 20
TOTAL_ITERS = 3000
INIT_SEED = 0
PREP_SEED = 90210  # fixed: the prepared checkpoint does not depend on --seed
LOSS_WINDOW = 10
MAX_LOOP_S = 120.0  # the run must end within 180 s, set-up included


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    model: dict
    samples: int  # training set (train) or held-out set (eval)
    batch_size: int = 8
    rep_steps: int = 60  # one train() run; the loop repeats it from scratch
    warmup_steps: int = 10  # untimed steps of the first train() run
    prep_samples: int = 16
    prep_batch: int = 8
    prep_steps: int = 100
    min_units: int = 100  # p90 needs ten timed units beyond it
    setup_repeats: int = 5


WORKLOADS = {w.name: w for w in (
    Workload("train_a5", "train", A5_MODEL, samples=16),
    Workload("eval_a5", "eval", A5_MODEL, samples=128),
    Workload("eval_r480", "eval", R480_MODEL, samples=24,
             prep_samples=8, prep_batch=1, prep_steps=60),
)}


def model_config(w: Workload, vocab_size: int):
    from restr.encoders import ModelConfig
    return ModelConfig(vocab_size=vocab_size, **w.model)


def train_config(batch_size: int):
    from restr.training import TrainConfig
    return TrainConfig(base_lr=BASE_LR, warmup_iters=WARMUP_ITERS,
                       total_iters=TOTAL_ITERS, batch_size=batch_size,
                       seed=INIT_SEED, eval_every=0, log_every=1)


def make_inputs(w: Workload, seed: int):
    """The only thing --seed changes: the generated dataset."""
    from restr import data
    return data.generate(seed, w.samples, w.model["image_h"], w.model["image_w"])


class Tally:
    """Units attempted and failed; a failing unit never stops the workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    def run(self, fn: Callable, check: Callable) -> tuple[object, float]:
        """Time one call of ``fn`` and check its output; returns (output, s)."""
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising unit is a failed unit, not a crash
            elapsed = perf_counter() - start
            self.record(f"{type(exc).__name__}: {exc}")
            return None, elapsed
        elapsed = perf_counter() - start
        try:
            self.record(check(out))
        except Exception as exc:
            self.record(f"check raised {type(exc).__name__}: {exc}")
        return out, elapsed


def _keep_going(w: Workload, rounds: int, traced: bool, units: int, started: float,
                last_round: float, seconds: float) -> bool:
    """Another round if the minimum is not reached (a traced run needs an
    untraced and a traced round) or if one more still fits in ``seconds``.
    No round starts that would end past MAX_LOOP_S, so a slow machine or a
    run whose units all fail at once still ends in time."""
    if rounds < (2 if traced else 1):
        return True
    ends = perf_counter() - started + last_round
    if ends > MAX_LOOP_S:
        return False
    return units < w.min_units or ends <= seconds


# ---------------------------------------------------------------------------
# train_a5
# ---------------------------------------------------------------------------

def final_loss(losses: list[float]) -> float:
    return sum(losses[-LOSS_WINDOW:]) / LOSS_WINDOW


def run_train(w: Workload, samples, cfg, params, seconds: float, tally: Tally,
              tracer=None) -> dict:
    """Repeat the same seeded train() run until ``seconds`` have passed.

    Every run starts from the same initial weights, so every run logs the
    same losses; a run that differs from the first one is a failed check.
    With a tracer, runs alternate untraced and traced, starting untraced.
    """
    import numpy as np
    from restr import decoder, training

    tcfg = train_config(w.batch_size)
    step_s: list[float] = []
    traced_s: list[float] = []
    rep_rates: list[float] = []
    first_losses: list[float] | None = None
    started = perf_counter()
    rep, last_rep = 0, 0.0
    while _keep_going(w, rep, tracer is not None, len(step_s) + len(traced_s),
                      started, last_rep, seconds):
        rep_start = perf_counter()
        if rep:
            params = decoder.init_model(np.random.default_rng(INIT_SEED), cfg)
        opt = training.AdamW(params.named_parameters(), tcfg)
        skip = w.warmup_steps if rep == 0 else 1
        traced = tracer is not None and rep % 2 == 1
        times: list[float] = []
        losses: list[float] = []
        clock = [perf_counter()]

        def on_log(row):
            now = perf_counter()
            if row.iteration > skip:
                times.append(now - clock[0])
                if traced:
                    tracer.add_units(1, now - clock[0])
            losses.append(row.loss_total)
            if traced:
                tracer.recording = row.iteration >= skip
            clock[0] = perf_counter()

        if traced:
            tracer.install()
        crash = None
        try:
            training.train(params, cfg, tcfg, samples, stop_after=w.rep_steps,
                           optimizer=opt, on_log=on_log)
        except Exception as exc:  # the step in flight failed; later runs go on
            crash = f"run {rep} step {len(losses) + 1}: {type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.recording = False
                tracer.uninstall()
        (traced_s if traced else step_s).extend(times)
        if times and not traced:
            rep_rates.append(w.batch_size * len(times) / sum(times))
        if first_losses is None and crash is None:
            first_losses = losses
        for i, value in enumerate(losses):
            problem = None
            if not math.isfinite(value):
                problem = f"run {rep} step {i + 1}: loss {value}"
            elif first_losses not in (None, losses) and value != first_losses[i]:
                problem = f"run {rep} step {i + 1}: loss differs from run 0"
            elif i == w.rep_steps - 1 and final_loss(losses) >= losses[0]:
                problem = f"final loss {final_loss(losses)} not below {losses[0]}"
            tally.record(problem)
        if crash:
            tally.record(crash)
        rep += 1
        last_rep = perf_counter() - rep_start
    return {"unit_s": step_s, "traced_unit_s": traced_s,
            "loss": final_loss(first_losses) if first_losses else math.nan,
            "samples_per_s": float(np.median(rep_rates)) if rep_rates else math.nan}


# ---------------------------------------------------------------------------
# eval_a5 / eval_r480
# ---------------------------------------------------------------------------

def _mask_problem(mask, shape) -> str | None:
    import numpy as np
    mask = np.asarray(mask)
    if mask.shape != shape:
        return f"mask shape {mask.shape}, expected {shape}"
    if not np.isin(mask, (0, 1)).all():
        return "mask is not binary"
    return None


def reference_masks(samples, cfg, params, tally: Tally) -> list:
    """Whole-set masks, the reference for every later unit. Untimed; it is
    also the warm-up."""
    from restr import metrics

    shape = (cfg.image_h, cfg.image_w)
    masks, _ = tally.run(lambda: metrics.predicted_masks(params, cfg, samples),
                         lambda out: None if len(out) == len(samples)
                         else f"{len(out)} masks for {len(samples)} samples")
    masks = masks or [None] * len(samples)
    for m in masks:
        tally.record(_mask_problem(m, shape) if m is not None else "no mask")
    return masks


def run_eval(w: Workload, samples, cfg, params, seconds: float, tally: Tally,
             tracer=None) -> dict:
    """Rounds of (1) one evaluate_model over the set and (2) one
    predicted_masks call per sample, until ``seconds`` have passed.

    Every output is checked against the whole-set reference masks. With a
    tracer, rounds alternate untraced and traced, starting untraced.
    """
    import numpy as np
    from restr import metrics

    masks = reference_masks(samples, cfg, params, tally)
    shape = (cfg.image_h, cfg.image_w)
    gts = [np.asarray(s.mask).reshape(shape).astype(np.uint8) for s in samples]
    ref_ius = [metrics.intersection_union(m, g) if m is not None else None
               for m, g in zip(masks, gts)]

    def check_report(report):
        if report.n_samples != len(samples):
            return f"report covers {report.n_samples} of {len(samples)} samples"
        if list(report.inter_unions) != ref_ius:
            return "evaluate_model intersections differ from the reference masks"
        return None

    single_s: list[float] = []
    traced_single_s: list[float] = []
    set_rates: list[float] = []
    started = perf_counter()
    rnd, last_round = 0, 0.0
    while _keep_going(w, rnd, tracer is not None,
                      len(single_s) + len(traced_single_s), started, last_round,
                      seconds):
        round_start = perf_counter()
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
            tracer.recording = True
        try:
            report, dt = tally.run(
                lambda: metrics.evaluate_model(params, cfg, samples), check_report)
            if traced:
                tracer.add_units(len(samples), dt)
            elif report is not None:
                set_rates.append(len(samples) / dt)
            for s, ref in zip(samples, masks):
                _, dt = tally.run(
                    lambda s=s: metrics.predicted_masks(params, cfg, [s]),
                    lambda out, ref=ref: (
                        f"{len(out)} masks for one sample" if len(out) != 1
                        else _mask_problem(out[0], shape)
                        or (None if ref is not None and np.array_equal(out[0], ref)
                            else "single-sample mask differs from the whole-set mask")))
                if traced:
                    tracer.add_units(1, dt)
                    traced_single_s.append(dt)
                else:
                    single_s.append(dt)
        finally:
            if traced:
                tracer.recording = False
                tracer.uninstall()
        rnd += 1
        last_round = perf_counter() - round_start
    return {"unit_s": single_s, "traced_unit_s": traced_single_s,
            "samples_per_s": float(np.median(set_rates)) if set_rates else math.nan}
