import gc
import math
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from skdistill import tensor as T, trainer
from skdistill.checkpoint import Checkpoint, checkpoint_to_bytes
from skdistill.config import RunConfig, TrainConfig, config_hash
from skdistill.data import CorpusSpec, make_samples
from skdistill.errors import CheckpointFormatError, ConfigError, NonFiniteError, RangeError
from skdistill.losses import LossWeights
from skdistill.models import ModelConfig, RestorationNet, build_net
from skdistill.tensor import Tensor
from skdistill.trainer import (
    AdamState,
    adam_step,
    cosine_lr,
    distill,
    evaluate,
    load_net,
    make_train_heldout,
    train_teacher,
)

from oracles import one_graph_step


def tiny_run(**overrides):
    defaults = dict(
        model=ModelConfig([1, 1], base_channels=6, input_channels=1),
        student_model=ModelConfig([1, 1], base_channels=4, input_channels=1),
        train=TrainConfig(epochs=2, batch_size=4, eval_interval=100, seed=5),
        data=CorpusSpec(count=8, patch_size=16, task="denoise", noise_sigma=0.1, base_seed=5),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        g = np.array([0.5, -0.25, 1.0])
        state = AdamState.for_params([p])
        adam_step([p], [g], state, lr=1e-3)
        update = p.data - np.array([1.0, -2.0, 3.0])
        assert np.allclose(update, -1e-3 * np.sign(g), rtol=1e-6)

    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = AdamState.for_params([p])
        for _ in range(5):
            adam_step([p], [np.zeros(2)], state, lr=1e-2)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_bitwise_deterministic(self):
        def run():
            g = np.random.default_rng(0)
            p = Tensor(g.normal(size=8), requires_grad=True)
            state = AdamState.for_params([p])
            for i in range(20):
                grad = np.sin(p.data + i)
                adam_step([p], [grad], state, lr=1e-3)
            return p.data.tobytes(), state.m[0].tobytes(), state.v[0].tobytes()

        assert run() == run()

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(NonFiniteError):
            adam_step([p], [np.array([float("nan")])], state, lr=1e-3)
        assert np.array_equal(p.data, [1.0])


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 1000, 2e-4) == pytest.approx(2e-4)
        assert cosine_lr(1000, 1000, 2e-4) == pytest.approx(1e-6)
        assert cosine_lr(500, 1000, 2e-4) == pytest.approx(1.005e-4)

    def test_monotone_decay(self):
        values = [cosine_lr(s, 100, 1e-3) for s in range(0, 101, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            cosine_lr(-1, 100, 1e-3)
        with pytest.raises(RangeError):
            cosine_lr(101, 100, 1e-3)


class TestTeacherTraining:
    def test_loss_falls_and_logs(self):
        run = tiny_run(train=TrainConfig(epochs=8, batch_size=4, eval_interval=8, seed=1))
        samples, held = make_train_heldout(run)
        res = train_teacher(run, samples, held)
        assert not res.aborted
        assert "aborted" not in res.checkpoint.meta
        assert res.history[-1]["loss"] < res.history[0]["loss"]
        assert res.eval_history
        assert {"psnr_restored", "psnr_degraded"} <= set(res.eval_history[-1])
        # the held-out pass and evaluate share one restore path
        assert res.eval_history[-1]["psnr_restored"] == evaluate(res.checkpoint, held)["psnr"]

    def test_bitwise_determinism(self):
        blobs = []
        for _ in range(2):
            run = tiny_run()
            samples, held = make_train_heldout(run)
            res = train_teacher(run, samples, held)
            blobs.append(checkpoint_to_bytes(res.checkpoint))
        assert blobs[0] == blobs[1]

    def test_two_hundred_step_toy_task_halves_loss(self):
        run = RunConfig(
            model=ModelConfig([1, 1], base_channels=12, input_channels=1),
            train=TrainConfig(epochs=20, batch_size=4, eval_interval=300, seed=0,
                              lr_max=1e-3),
            data=CorpusSpec(count=40, patch_size=16, task="denoise",
                            noise_sigma=0.2, base_seed=0),
        )
        samples, held = make_train_heldout(run)
        res = train_teacher(run, samples, held)
        emas = [h["ema"] for h in res.history]
        assert len(emas) == 200
        assert min(emas[9:]) <= 0.5 * emas[9]
        ev = res.eval_history[-1]
        assert ev["psnr_restored"] > ev["psnr_degraded"]

    def test_divergence_aborts_with_last_good_state(self, monkeypatch):
        run = tiny_run(train=TrainConfig(epochs=4, batch_size=4, eval_interval=100, seed=2))
        samples, held = make_train_heldout(run)
        real_loss = trainer.reconstruction_loss
        calls = []

        def diverging_loss(out, target):
            # finite for the first two steps (4 samples each), then inf
            calls.append(None)
            loss = real_loss(out, target)
            return T.mul(loss, math.inf) if len(calls) > 8 else loss

        monkeypatch.setattr(trainer, "reconstruction_loss", diverging_loss)
        res = train_teacher(run, samples, held)
        assert res.aborted
        assert res.checkpoint.meta["aborted"] is True
        assert res.checkpoint.step == 2
        # network parameters are the last good ones (the failed step never applied)
        for name, arr in res.checkpoint.tensors.items():
            if name.startswith("net."):
                assert np.all(np.isfinite(arr)), name

    def test_forward_overflow_aborts_with_checkpoint(self, monkeypatch):
        run = tiny_run(train=TrainConfig(epochs=4, batch_size=4, eval_interval=100, seed=2))
        samples, held = make_train_heldout(run)
        real_step = trainer.adam_step

        def diverging_step(params, *args):
            state = real_step(params, *args)
            if state.t == 2:
                # step 2 lands on finite weights whose forward overflows
                for p in params:
                    p.data = p.data * 1e300
            return state

        monkeypatch.setattr(trainer, "adam_step", diverging_step)
        with np.errstate(over="ignore", invalid="ignore"):
            res = train_teacher(run, samples, held)
        assert res.aborted and res.checkpoint.meta["aborted"] is True
        assert res.checkpoint.step == 2
        assert res.abort_reason == "non-finite loss at step 2"
        # the diverged parameters are not scored
        assert res.eval_history == []

    def test_heldout_overflow_aborts_with_checkpoint(self, monkeypatch):
        run = tiny_run(train=TrainConfig(epochs=4, batch_size=4, eval_interval=3, seed=2))
        samples, held = make_train_heldout(run)
        real_restore = trainer._restore

        def overflowing_restore(net, sample):
            # only the held-out output overflows; the training loss stays finite
            overflowed = SimpleNamespace(forward=lambda x: T.add(net.forward(x), math.inf))
            return real_restore(overflowed, sample)

        monkeypatch.setattr(trainer, "_restore", overflowing_restore)
        with np.errstate(over="ignore", invalid="ignore"):
            res = train_teacher(run, samples, held)
        assert res.aborted and res.checkpoint.meta["aborted"] is True
        assert res.checkpoint.step == 3
        assert res.abort_reason == "the net's output holds NaN or Inf"
        assert res.eval_history == []
        assert len(res.history) == 3

    def test_nan_degraded_image_is_refused(self):
        run = tiny_run()
        samples, held = make_train_heldout(run)
        samples[0].degraded = np.full_like(samples[0].degraded, np.nan)
        with pytest.raises(RangeError, match="normalize"):
            train_teacher(run, samples, held)


class TestDistillation:
    def test_components_logged_and_accounted(self):
        run = tiny_run()
        samples, held = make_train_heldout(run)
        teacher = train_teacher(run, samples, held)
        res = distill(run, teacher.checkpoint, samples, held)
        assert not res.aborted
        w = run.train.loss
        for h in res.history:
            recombined = h["rec"] + (w.alpha2 * h["gk"] + w.alpha3 * h["cl"])
            assert h["loss"] == recombined
            assert h["gk"] > 0.0
            assert h["cl"] >= 0.0

    def test_teacher_bytes_untouched(self):
        run = tiny_run()
        samples, held = make_train_heldout(run)
        teacher = train_teacher(run, samples, held)
        before = checkpoint_to_bytes(teacher.checkpoint)
        distill(run, teacher.checkpoint, samples, held)
        assert checkpoint_to_bytes(teacher.checkpoint) == before

    def test_projector_width_is_the_loss_unified_dim(self, teacher_ckpt):
        run = tiny_run(train=TrainConfig(epochs=1, batch_size=4, eval_interval=100, seed=5,
                                         loss=LossWeights(unified_dim=3)))
        res = distill(run, teacher_ckpt, *make_train_heldout(run))
        widths = {arr.shape[0] for name, arr in res.checkpoint.tensors.items()
                  if name.startswith("aux.proj")}
        assert widths == {3}

    def test_input_channel_mismatch_rejected(self, teacher_ckpt):
        # at zero weights the 1-channel teacher never runs, so only this
        # check stops a 3-channel student from training
        run = tiny_run(model=ModelConfig([1, 1], base_channels=6, input_channels=3),
                       student_model=ModelConfig([1, 1], base_channels=4, input_channels=3),
                       train=TrainConfig(epochs=1, batch_size=4, eval_interval=100, seed=5,
                                         loss=LossWeights(alpha2=0.0, alpha3=0.0)),
                       data=CorpusSpec(count=8, patch_size=16, channels=3, base_seed=5))
        with pytest.raises(ConfigError, match="input_channels 3 differ from the teacher's 1"):
            distill(run, teacher_ckpt, *make_train_heldout(run))

    def test_level_count_mismatch_rejected(self):
        run = tiny_run(student_model=ModelConfig([1], base_channels=4, input_channels=1))
        samples, held = make_train_heldout(run)
        teacher = train_teacher(run, samples, held)
        with pytest.raises(ConfigError):
            distill(run, teacher.checkpoint, samples, held)


class TestPlainStudent:
    """A plain student is `distill` at alpha2 = alpha3 = 0: reconstruction
    training of the student alone, from the distilled student's init."""

    @staticmethod
    def _plain_run(epochs):
        return tiny_run(train=TrainConfig(epochs=epochs, batch_size=4, eval_interval=100,
                                          seed=7, loss=LossWeights(alpha2=0.0, alpha3=0.0)))

    def test_teacher_never_runs(self, monkeypatch, teacher_ckpt):
        load = trainer.load_net

        def frozen_unused(ckpt):
            net = load(ckpt)

            def refuse(*args):
                raise AssertionError("the teacher ran at zero distillation weights")

            net.forward = net.forward_with_features = refuse
            return net

        monkeypatch.setattr(trainer, "load_net", frozen_unused)
        run = self._plain_run(1)
        res = distill(run, teacher_ckpt, *make_train_heldout(run))
        assert not res.aborted and res.history

    def test_history_is_reconstruction_only(self, teacher_ckpt):
        run = self._plain_run(2)
        res = distill(run, teacher_ckpt, *make_train_heldout(run))
        assert len(res.history) == 4
        for h in res.history:
            assert h["gk"] == 0.0 and h["cl"] == 0.0
            assert h["loss"] == h["rec"]

    def test_projectors_never_move(self, teacher_ckpt):
        # zero gradients give Adam an update of exactly 0
        def projectors(epochs):
            run = self._plain_run(epochs)
            tensors = distill(run, teacher_ckpt, *make_train_heldout(run)).checkpoint.tensors
            return {k: v.tobytes() for k, v in tensors.items() if k.startswith("aux.proj")}

        one, two = projectors(1), projectors(2)
        assert one and one == two


@pytest.fixture(scope="module")
def teacher_ckpt():
    run = tiny_run(train=TrainConfig(epochs=1, batch_size=4, eval_interval=100, seed=5))
    return train_teacher(run, *make_train_heldout(run)).checkpoint


class TestStreamedStep:
    """`_batch_step` runs one sample's graph at a time; its loss, components
    and gradients must be byte-equal to the one-graph batch objective's."""

    @staticmethod
    def _captured(monkeypatch, train, *args):
        seen = {}

        def capture(net, extra_params, run, objective, *rest):
            seen.update(objective=objective, w=run.train.loss,
                        params=list(net.params().values()) + list(extra_params.values()))

        monkeypatch.setattr(trainer, "_train_loop", capture)
        train(*args)
        return seen

    @staticmethod
    def _assert_matches_one_graph(seen, batch, weighted):
        objective, params, w = seen["objective"], seen["params"], seen["w"]
        loss, components, grads = trainer._batch_step(objective, batch, params, w, 0)
        ref_loss, ref_components, ref_grads = one_graph_step(
            objective, batch, params, w if weighted else None)
        assert loss.hex() == ref_loss.hex()
        assert {k: v.hex() for k, v in components.items()} == \
            {k: v.hex() for k, v in ref_components.items()}
        assert len(grads) == len(ref_grads) == len(params)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape and g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 3, 4])
    def test_teacher(self, monkeypatch, batch_size):
        run = tiny_run()
        samples, held = make_train_heldout(run)
        seen = self._captured(monkeypatch, train_teacher, run, samples, held)
        self._assert_matches_one_graph(seen, samples[:batch_size], weighted=False)

    @pytest.mark.parametrize("loss", [
        LossWeights(tau=0.5),
        LossWeights(tau=1e-6),
        LossWeights(alpha2=0.0, alpha3=0.0),
    ], ids=["tau0.5", "tau1e-6", "alphas0"])
    def test_distill(self, monkeypatch, teacher_ckpt, loss):
        run = tiny_run(train=TrainConfig(epochs=1, batch_size=4, eval_interval=100, seed=5,
                                         loss=loss))
        samples, held = make_train_heldout(run)
        seen = self._captured(monkeypatch, distill, run, teacher_ckpt, samples, held)
        self._assert_matches_one_graph(seen, samples[:4], weighted=True)


def test_distill_frees_each_samples_graph_before_the_next_forward(monkeypatch,
                                                                  teacher_ckpt):
    run = tiny_run(train=TrainConfig(epochs=1, batch_size=4, eval_interval=100, seed=5))
    samples, held = make_train_heldout(run)
    forward = RestorationNet.forward_with_features
    outputs: list[weakref.ref] = []
    student_calls = []

    def spy(net, x):
        if next(iter(net.params().values())).requires_grad:
            # refcounting alone must have freed the previous sample's graph
            assert all(ref() is None for ref in outputs), \
                f"student call {len(student_calls)}: an earlier output is alive"
            student_calls.append(None)
            out, feats = forward(net, x)
            outputs.extend(weakref.ref(t) for t in (out, *(f.values for f in feats)))
            return out, feats
        return forward(net, x)

    monkeypatch.setattr(RestorationNet, "forward_with_features", spy)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        res = distill(run, teacher_ckpt, samples, held)
    finally:
        if was_enabled:
            gc.enable()
    assert not res.aborted and len(res.history) == 2
    assert len(student_calls) >= 2 * run.train.batch_size


class TestEvaluate:
    def _identity_ckpt(self, run):
        net = build_net(run.model, 0)
        return Checkpoint(step=0,
                          meta={"kind": "teacher", "model": run.model.to_dict(),
                                "config": run.to_dict(),
                                "config_hash": config_hash(run)},
                          tensors={f"net.{k}": v for k, v in net.state_arrays().items()})

    def test_identity_model_on_clean_data_hits_caps(self):
        run = tiny_run(data=CorpusSpec(count=4, patch_size=16, task="denoise",
                                       noise_sigma=0.0, base_seed=1))
        samples, _ = make_train_heldout(run)
        report = evaluate(self._identity_ckpt(run), samples)
        assert report["psnr"] == 100.0
        assert report["ssim"] == 1.0

    def test_identity_model_on_noisy_data_is_below_cap(self):
        run = tiny_run(data=CorpusSpec(count=4, patch_size=16, task="denoise",
                                       noise_sigma=0.1, base_seed=1))
        samples, _ = make_train_heldout(run)
        report = evaluate(self._identity_ckpt(run), samples)
        assert report["psnr"] < 100.0

    def test_trained_net_on_clean_data_is_below_cap(self):
        # degraded == clean, but a trained (non-identity) net perturbs it
        run = tiny_run(data=CorpusSpec(count=8, patch_size=16, task="denoise",
                                       noise_sigma=0.0, base_seed=1))
        samples, held = make_train_heldout(run)
        noisy_run = tiny_run()
        train_samples, _ = make_train_heldout(noisy_run)
        res = train_teacher(noisy_run, train_samples, held)
        report = evaluate(res.checkpoint, samples)
        assert report["psnr"] < 100.0

    def test_report_fields_and_determinism(self):
        run = tiny_run()
        samples, held = make_train_heldout(run)
        res = train_teacher(run, samples, held)
        r1 = evaluate(res.checkpoint, held)
        r2 = evaluate(res.checkpoint, held)
        assert r1 == r2
        assert set(r1) == {"task", "psnr", "ssim", "params", "flops", "steps",
                           "config_hash"}
        assert r1["steps"] == res.checkpoint.step
        assert r1["config_hash"] == config_hash(run)

    # params/flops are counted at one extent, so a set of mixed sizes is refused
    def test_mixed_image_sizes_are_refused(self):
        run = tiny_run()
        small = make_samples(run.data)[:1]
        large = make_samples(CorpusSpec(count=1, patch_size=64, task="denoise",
                                        noise_sigma=0.1, base_seed=5))
        with pytest.raises(ConfigError, match=r"sample 1 is \(1, 64, 64\), "
                                              r"sample 0 is \(1, 16, 16\)"):
            evaluate(self._identity_ckpt(run), small + large)

    # a NaN parameter is refused on load; a finite one that overflows the
    # forward to +inf is refused before the clip would turn it into 1.0
    @pytest.mark.parametrize("name,value,match", [("embed.b", math.nan, "embed.b"),
                                                  ("final.w", 1e308, "output")])
    def test_non_finite_checkpoint_is_refused(self, name, value, match):
        run = tiny_run()
        ckpt = self._identity_ckpt(run)
        ckpt.tensors[f"net.{name}"].flat[0] = value
        samples, _ = make_train_heldout(run)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match=match):
            evaluate(ckpt, samples)


def test_heldout_block_is_disjoint_and_sized():
    run = tiny_run()
    samples, held = make_train_heldout(run)
    assert len(samples) == run.data.count
    assert len(held) == max(4, run.data.count // 5)
    train_bytes = {s.clean.tobytes() for s in samples}
    assert all(h.clean.tobytes() not in train_bytes for h in held)


@pytest.mark.parametrize("meta", [{}, {"model": "net"}, ["model"]])
def test_load_net_needs_model_meta(meta):
    with pytest.raises(CheckpointFormatError, match="model"):
        load_net(Checkpoint(meta=meta))


class TestLoadNet:
    def _ckpt(self):
        run = tiny_run()
        net = build_net(run.model, 4)
        tensors = {f"opt.m.net.{k}": np.zeros_like(v) for k, v in net.state_arrays().items()}
        # checkpoint order differs from the layout order on purpose
        tensors.update({f"net.{k}": v for k, v in reversed(net.state_arrays().items())})
        return net, Checkpoint(step=2, meta={"model": run.model.to_dict()}, tensors=tensors)

    def test_equals_checkpoint_in_layout_order(self):
        net, ckpt = self._ckpt()
        loaded = load_net(ckpt)
        assert list(loaded.params()) == list(net.params())
        for name, p in loaded.params().items():
            stored = ckpt.tensors[f"net.{name}"]
            assert p.shape == stored.shape
            # shared, not copied, and read-only: the net cannot write into the state
            assert p.data.tobytes() == stored.tobytes()
            assert np.shares_memory(p.data, stored) and not p.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                p.data += 1.0
            assert not p.requires_grad

    def test_non_finite_parameter_is_refused(self):
        _, ckpt = self._ckpt()
        ckpt.tensors["net.embed.b"] = np.full_like(ckpt.tensors["net.embed.b"], np.nan)
        with pytest.raises(NonFiniteError):
            load_net(ckpt)

    def test_load_and_evaluate_draw_no_random_numbers(self, monkeypatch):
        _, ckpt = self._ckpt()
        samples, _ = make_train_heldout(tiny_run())
        expected = evaluate(ckpt, samples)

        def no_draws(*args):
            raise AssertionError(f"rng_for{args} called")

        patched = [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "skdistill" and hasattr(m, "rng_for")]
        assert len(patched) > 2
        for module in patched:
            monkeypatch.setattr(module, "rng_for", no_draws)
        load_net(ckpt)
        assert evaluate(ckpt, samples) == expected
