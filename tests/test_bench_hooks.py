"""The traced benchmark hooks skdistill functions by name; pin those names here.

`perfbench/tracing.py` wraps package functions from outside. A rename or
deletion in `src/` would only show in a traced benchmark run, which the fast
suite does not make, so install every hook and take them out again, and run
a short traced distillation so that a changed argument list shows too.
"""

import importlib.util
import sys
from pathlib import Path

import skdistill
from skdistill.config import RunConfig, TrainConfig
from skdistill.data import CorpusSpec
from skdistill.models import ModelConfig
from skdistill.trainer import make_train_heldout, train_teacher

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _package_namespaces() -> dict:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "skdistill" or name.startswith("skdistill."))}


def test_tracing_install_finds_every_hooked_name():
    tracing = _tracing()
    before = _package_namespaces()
    patcher = tracing.Patcher()
    try:
        tracing.install(tracing.Tracer(), patcher, skdistill, ModelConfig())
        assert _package_namespaces() != before
    finally:
        patcher.restore()
    assert _package_namespaces() == before


def test_traced_distill_and_evaluate_record_every_span():
    tracing = _tracing()
    run = RunConfig(
        model=ModelConfig([1, 1], base_channels=6),
        student_model=ModelConfig([1, 1], base_channels=4),
        train=TrainConfig(epochs=1, batch_size=4, eval_interval=100, seed=3),
        data=CorpusSpec(count=8, patch_size=16, task="denoise", noise_sigma=0.1, base_seed=3),
    )
    samples, held = make_train_heldout(run)
    teacher = train_teacher(run, samples, held).checkpoint
    before = _package_namespaces()
    tracer, patcher, clock = tracing.Tracer(), tracing.Patcher(), tracing.StepClock()
    try:
        clock.install(patcher, skdistill.trainer)
        clock.tracer = tracer
        tracing.install(tracer, patcher, skdistill, run.model)
        result = skdistill.distill(run, teacher, samples, held)
        skdistill.evaluate(result.checkpoint, held[:1])
    finally:
        patcher.restore()
    assert _package_namespaces() == before
    assert tracer.step_count == len(result.history) == 2
    assert tracer.errors == []
    assert tracer.counts["attention.nxn_bytes"] > 0
    spans = {"attention.spatial", "attention.channel", "attention.project",
             "losses.gk", "losses.contrastive", "losses.phi", "losses.rec",
             "models.student_forward", "models.teacher_forward",
             "trainer.adam", "trainer.eval"}
    assert spans <= set(tracer.calls)
