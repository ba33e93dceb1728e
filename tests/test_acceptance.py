"""Acceptance suite: one test per exit criterion, fixed tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one [PASS] line per
criterion. The end-to-end smoke (teacher + distillation) takes a few
minutes; everything else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from skdistill import tensor as T
from skdistill.attention import (
    FeatureMap,
    channel_attention_matrix,
    channel_cross_attention,
    spatial_cross_attention,
)
from skdistill.checkpoint import (
    Checkpoint,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
)
from skdistill.config import RunConfig, TrainConfig
from skdistill.data import CorpusSpec
from skdistill.errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from skdistill.gradsuite import run_gradcheck_suite, total_trials
from skdistill.losses import (
    LossWeights,
    PhiExtractor,
    contrastive_loss_from_features,
    gaussian_kernel_distance,
    total_loss,
)
from skdistill.metrics import psnr, ssim
from skdistill.models import (
    ModelConfig,
    build_net,
    compress_config,
    count_params_flops,
)
from skdistill.tensor import Tensor
from skdistill.trainer import (
    distill,
    evaluate,
    make_train_heldout,
    train_teacher,
)

from oracles import (
    brute_force_channel,
    brute_force_spatial,
    brute_force_ssim_window,
    gaussian_window,
    spatial_attention_matrix,
)


def report(line: str) -> None:
    print(f"\n[PASS] {line}")


TEACHER_CFG = ModelConfig([4, 6, 6, 8], 48, 1)
STUDENT_CFG = compress_config(TEACHER_CFG, [1, 2, 2, 4], 32)


class TestCompressionAccounting:
    def test_reductions_in_window_and_trace_exact(self):
        t0 = time.perf_counter()
        tp, tf = count_params_flops(TEACHER_CFG, 128, 128)
        sp, sf = count_params_flops(STUDENT_CFG, 128, 128)
        p_red = 100.0 * (1.0 - sp / tp)
        f_red = 100.0 * (1.0 - sf / tf)
        analytic_time = time.perf_counter() - t0
        assert analytic_time < 1.0
        assert 80.0 <= p_red <= 90.0
        assert 80.0 <= f_red <= 90.0

        # exact cross-check against an instrumented forward trace (16x16
        # keeps the big configs affordable; MAC equality is extent-exact)
        for cfg in (TEACHER_CFG, STUDENT_CFG):
            net = build_net(cfg, 0)
            a_params, a_flops = count_params_flops(cfg, 16, 16)
            assert a_params == sum(p.size for p in net.params().values())
            with T.count_macs() as counter:
                net.forward_with_features(Tensor(np.zeros((1, 16, 16))))
            assert a_flops == 2 * counter.macs
        report(f"compression accounting: params -{p_red:.1f}%, flops -{f_red:.1f}% "
               f"(window [80, 90]), analytic {analytic_time*1e3:.1f} ms, "
               f"instrumented trace exact")


class TestGradientSuite:
    def test_all_ops_and_losses_within_tolerance(self):
        worst, worst_seed, elapsed = None, 0, 0.0
        for seed in range(10):
            t0 = time.perf_counter()
            results = run_gradcheck_suite(seed=seed)
            elapsed = max(elapsed, time.perf_counter() - t0)
            assert elapsed < 60.0
            trials = total_trials(results)
            assert trials >= 100
            failing = [r.name for r in results if not r.max_rel_err < 1e-4]
            assert not failing, (seed, failing)
            top = max(results, key=lambda r: r.max_rel_err)
            if worst is None or top.max_rel_err > worst.max_rel_err:
                worst, worst_seed = top, seed
        report(f"gradient suite: {trials} seeded trials at each of seeds 0-9, worst rel err "
               f"{worst.max_rel_err:.2e} ({worst.name}, seed {worst_seed}) < 1e-4, "
               f"slowest seed {elapsed:.1f}s")


class TestClosedFormLossIdentities:
    def test_identities(self):
        g = np.random.default_rng(0)
        x = Tensor(g.normal(size=(3, 5)))
        assert gaussian_kernel_distance(x, x).item() == 0.0

        for sigma in (1.0, 0.3, 2.5):
            y = Tensor(np.zeros(7))
            z = Tensor(np.full(7, sigma * math.sqrt(2.0)))
            got = gaussian_kernel_distance(y, z, sigma).item()
            assert abs(got - (1.0 - math.exp(-1.0))) < 1e-12

        phi = PhiExtractor(1, seed=0)
        s_r = Tensor(g.normal(size=(1, 8, 8)))
        t_r = Tensor(g.normal(size=(1, 8, 8)))
        loss = contrastive_loss_from_features(phi(s_r), phi(t_r), [phi(t_r)] * 8, 1e-6).item()
        assert abs(loss - math.log(9.0)) < 1e-12

        w = LossWeights(alpha2=0.2, alpha3=0.2)
        assert total_loss(0.875, 0.0, 0.0, w).item() == 0.875
        assert total_loss(0.0, 1.25, 0.0, w).item() == 0.2 * 1.25
        assert total_loss(0.0, 0.0, 3.5, w).item() == 0.2 * 3.5
        assert total_loss(1.0, 0.5, 2.0, w).item() == pytest.approx(1.5, abs=1e-15)
        report("closed-form loss identities: GK(x,x)=0 exact, GK@2s^2 = 1-1/e "
               "+-1e-12, uniform-logit contrastive = ln(1+b) +-1e-12, total "
               "loss linear exact")


class TestAttentionNormalization:
    def test_rows_and_columns_sum_to_one_under_extreme_magnitudes(self):
        worst = 0.0
        for seed in range(30):
            g = np.random.default_rng(seed)
            scale = [1.0, 1e2, 1e3][seed % 3]
            t = FeatureMap(Tensor(g.uniform(-scale, scale, size=(4, 2, 3))))
            s = FeatureMap(Tensor(g.uniform(-scale, scale, size=(4, 2, 3))))
            a = channel_attention_matrix(t, s).data
            b = spatial_attention_matrix(t, s).data
            worst = max(worst,
                        float(np.max(np.abs(a.sum(axis=1) - 1.0))),
                        float(np.max(np.abs(b.sum(axis=0) - 1.0))))
        assert worst < 1e-9
        report(f"attention normalization: row/column sums within {worst:.1e} "
               f"of 1 over 30 trials, |x| up to 1e3")


class TestInteractionBruteForce:
    def test_two_by_two_hand_case(self):
        t_rows = [[1.0, 0.0], [0.0, 1.0]]
        s_rows = [[1.0, 2.0], [3.0, 4.0]]
        t = FeatureMap(Tensor([[r] for r in t_rows]))
        s = FeatureMap(Tensor([[r] for r in s_rows]))
        lam = math.sqrt(2.0)
        want_c, _ = brute_force_channel(t_rows, s_rows, lam)
        want_s, _ = brute_force_spatial(t_rows, s_rows, lam)
        got_c = channel_cross_attention(t, s).values.data.reshape(2, 2)
        got_s = spatial_cross_attention(t, s).values.data.reshape(2, 2)
        err = max(float(np.max(np.abs(got_c - np.array(want_c)))),
                  float(np.max(np.abs(got_s - np.array(want_s)))))
        assert err < 1e-12
        report(f"interaction brute-force equivalence: 2x2 hand case within {err:.1e}")


def smoke_run_config() -> RunConfig:
    return RunConfig(
        model=ModelConfig([1, 1], base_channels=16, input_channels=1),
        student_model=ModelConfig([1, 1], base_channels=8, input_channels=1),
        train=TrainConfig(epochs=100, batch_size=4, eval_interval=250, seed=0),
        data=CorpusSpec(count=40, patch_size=32, channels=1, task="denoise",
                        noise_sigma=0.1, base_seed=0),
    )


class TestEndToEndSmoke:
    def test_denoise_teacher_then_distill(self):
        t_start = time.perf_counter()
        run = smoke_run_config()
        samples, held = make_train_heldout(run)
        teacher = train_teacher(run, samples, held)
        assert not teacher.aborted
        assert teacher.checkpoint.step == 1000
        ev = teacher.eval_history[-1]
        gain = ev["psnr_restored"] - ev["psnr_degraded"]
        assert gain >= 2.0

        teacher_bytes = checkpoint_to_bytes(teacher.checkpoint)
        distill_run = RunConfig(model=run.model, student_model=run.student_model,
                                train=TrainConfig(epochs=50, batch_size=4,
                                                  eval_interval=250, seed=0),
                                data=run.data)
        student = distill(distill_run, teacher.checkpoint, samples, held)
        assert not student.aborted
        assert student.checkpoint.step == 500
        emas = [h["ema"] for h in student.history]
        ema10 = emas[9]
        best = min(emas[9:])
        assert best <= 0.5 * ema10
        assert checkpoint_to_bytes(teacher.checkpoint) == teacher_bytes

        elapsed = time.perf_counter() - t_start
        assert elapsed < 600.0
        report(f"end-to-end smoke: teacher +{gain:.2f} dB over degraded "
               f"(needs +2), distill loss ema {ema10:.1f} -> {best:.1f} "
               f"({best/ema10:.3f}x, needs <=0.5), teacher bytes unchanged, "
               f"{elapsed:.0f}s (< 600s)")


class TestDeterminism:
    def test_identical_runs_are_bitwise_identical(self):
        import json

        def one_run():
            run = RunConfig(
                model=ModelConfig([1, 1], base_channels=6, input_channels=1),
                student_model=ModelConfig([1, 1], base_channels=4, input_channels=1),
                train=TrainConfig(epochs=2, batch_size=4, eval_interval=100, seed=21),
                data=CorpusSpec(count=8, patch_size=16, task="denoise",
                                noise_sigma=0.1, base_seed=21),
            )
            samples, held = make_train_heldout(run)
            teacher = train_teacher(run, samples, held)
            student = distill(run, teacher.checkpoint, samples, held)
            report_blob = json.dumps(evaluate(student.checkpoint, held),
                                     sort_keys=True, indent=2)
            return (checkpoint_to_bytes(teacher.checkpoint),
                    checkpoint_to_bytes(student.checkpoint), report_blob)

        first, second = one_run(), one_run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]
        report("determinism: teacher/student checkpoints and evaluation "
               "report bitwise identical across two (config, seed) runs")


class TestMetricOracles:
    def test_ssim_against_brute_force_and_psnr_closed_forms(self):
        g = np.random.default_rng(7)
        a, b = g.random((1, 16, 16)), g.random((1, 16, 16))
        window = gaussian_window()
        weights = list(window.reshape(-1))
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        scores = []
        for i in range(6):
            for j in range(6):
                pa = list(a[0, i:i + 11, j:j + 11].reshape(-1))
                pb = list(b[0, i:i + 11, j:j + 11].reshape(-1))
                scores.append(brute_force_ssim_window(pa, pb, weights, c1, c2))
        ssim_err = abs(ssim(a, b, 1.0) - sum(scores) / len(scores))
        assert ssim_err < 1e-10

        twenty = psnr(np.zeros((1, 8, 8)), np.full((1, 8, 8), 0.1), 1.0)
        assert abs(twenty - 20.0) < 1e-6
        eight_bit = psnr(np.zeros((1, 8, 8)), np.ones((1, 8, 8)), 255.0)
        assert abs(eight_bit - 48.1308036087) < 1e-6
        report(f"metric oracles: windowed ssim matches brute force within "
               f"{ssim_err:.1e}, psnr closed forms 20 dB / 48.1308 dB within 1e-6")


class TestCheckpointRoundtrip:
    def test_lossless_and_error_kinds(self):
        g = np.random.default_rng(3)
        net = build_net(ModelConfig([1, 1], 6, 1), 9)
        ckpt = Checkpoint(step=77,
                          meta={"kind": "teacher", "model": net.cfg.to_dict()},
                          tensors={f"net.{k}": v for k, v in net.state_arrays().items()})
        blob = checkpoint_to_bytes(ckpt)
        back = checkpoint_from_bytes(blob)
        assert checkpoint_to_bytes(back) == blob
        for name, arr in ckpt.tensors.items():
            assert back.tensors[name].tobytes() == arr.tobytes()

        with pytest.raises(CheckpointFormatError):
            checkpoint_from_bytes(b"XKDC" + blob[4:])
        with pytest.raises(CheckpointVersionError):
            checkpoint_from_bytes(blob[:4] + (9).to_bytes(4, "little") + blob[8:])
        with pytest.raises(CheckpointTruncatedError):
            checkpoint_from_bytes(blob[:-3])
        report("checkpoint roundtrip: save/load bitwise lossless; bad magic, "
               "bad version, truncation raise their distinct error kinds")
