import contextlib
import io
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skdistill import cli, gradsuite, tensor as T, trainer
from skdistill.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from skdistill.cli import EXIT_ABORTED, main
from skdistill.config import RunConfig, TrainConfig, load_run_config, save_run_config
from skdistill.data import CorpusSpec, make_samples, write_image
from skdistill.errors import ConfigError
from skdistill.models import (ModelConfig, build_net, count_params_flops,
                              reduction_percentages)
from skdistill.trainer import TrainResult


@pytest.fixture()
def tiny_run(tmp_path):
    run = RunConfig(
        model=ModelConfig([1, 1], base_channels=6, input_channels=1),
        student_model=ModelConfig([1, 1], base_channels=4, input_channels=1),
        train=TrainConfig(epochs=2, batch_size=4, eval_interval=50, seed=3),
        data=CorpusSpec(count=8, patch_size=16, task="denoise", noise_sigma=0.1, base_seed=3),
    )
    path = tmp_path / "run.json"
    save_run_config(run, path)
    return run, path


def write_model_config(tmp_path, name, layers, channels):
    run = RunConfig(model=ModelConfig(layers, channels, 1))
    path = tmp_path / name
    save_run_config(run, path)
    return path


def save_working_checkpoint(run, path):
    """A seeded, untrained `run.model` net with the meta `eval` needs."""
    tensors = {f"net.{k}": v for k, v in build_net(run.model, 0).state_arrays().items()}
    save_checkpoint(Checkpoint(meta={"model": run.model.to_dict()}, tensors=tensors), path)


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--config", "x.json", "--bogus"])
        assert exc.value.code == 2

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        code = main(["count", "--config", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCount:
    def test_reference_reduction(self, tmp_path, capsys):
        teacher = write_model_config(tmp_path, "teacher.json", [4, 6, 6, 8], 48)
        student = write_model_config(tmp_path, "student.json", [1, 2, 2, 4], 32)
        assert main(["count", "--config", str(teacher), "--baseline", str(student)]) == 0
        out = capsys.readouterr().out
        reduction_line = [l for l in out.splitlines() if l.startswith("reduction")][0]
        numbers = [float(tok.split("=")[1].rstrip("%"))
                   for tok in reduction_line.split()[1:]]
        assert all(80.0 <= n <= 90.0 for n in numbers)

    def test_count_without_baseline(self, tmp_path, capsys):
        teacher = write_model_config(tmp_path, "teacher.json", [1, 1], 8)
        assert main(["count", "--config", str(teacher), "--size", "16"]) == 0
        assert "params=" in capsys.readouterr().out


class TestSynthEval:
    def test_synth_writes_pairs_and_manifest(self, tiny_run, tmp_path, capsys):
        _, cfg_path = tiny_run
        out_dir = tmp_path / "data"
        assert main(["synth", "--task", "denoise", "--spec", str(cfg_path),
                     "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["task"] == "denoise"
        assert (out_dir / "00000_clean.pgm").exists()
        assert (out_dir / "00007_degraded.pgm").exists()

    def test_manifest_is_the_corpus_spec(self, tiny_run, tmp_path, capsys):
        run, cfg_path = tiny_run
        out_dir = tmp_path / "data"
        assert main(["synth", "--task", "deblur", "--seed", "5", "--spec", str(cfg_path),
                     "--out", str(out_dir)]) == 0
        spec = replace(run.data, task="deblur", base_seed=5)
        text = (out_dir / "manifest.json").read_text()
        assert json.loads(text) == asdict(spec)
        assert text == json.dumps(asdict(spec), sort_keys=True, indent=2) + "\n"
        loaded, made = cli._load_dataset(str(out_dir)), make_samples(spec)
        assert len(loaded) == len(made) == spec.count
        eight_bit = lambda img: (np.rint(img * 255.0) / 255.0).tobytes()
        for a, b in zip(loaded, made):
            assert a.task == b.task == "deblur"
            assert a.clean.tobytes() == eight_bit(b.clean)
            assert a.degraded.tobytes() == eight_bit(b.degraded)

    def test_full_pipeline_and_eval_determinism(self, tiny_run, tmp_path, capsys):
        _, cfg_path = tiny_run
        data_dir = tmp_path / "data"
        teacher_path = tmp_path / "teacher.skdc"
        student_path = tmp_path / "student.skdc"
        assert main(["synth", "--spec", str(cfg_path), "--out", str(data_dir)]) == 0
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(teacher_path)]) == 0
        assert teacher_path.exists()
        assert main(["distill", "--config", str(cfg_path), "--teacher", str(teacher_path),
                     "--out", str(student_path)]) == 0
        assert student_path.exists()
        rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["eval", "--ckpt", str(student_path), "--data", str(data_dir),
                     "--report", str(rep1)]) == 0
        assert main(["eval", "--ckpt", str(student_path), "--data", str(data_dir),
                     "--report", str(rep2)]) == 0
        assert rep1.read_bytes() == rep2.read_bytes()
        report = json.loads(rep1.read_text())
        assert set(report) == {"task", "psnr", "ssim", "params", "flops",
                               "steps", "config_hash"}
        assert report["task"] == "denoise"

    def test_seed_flag_changes_outputs(self, tiny_run, tmp_path):
        _, cfg_path = tiny_run
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--spec", str(cfg_path), "--out", str(a), "--seed", "1"])
        main(["synth", "--spec", str(cfg_path), "--out", str(b), "--seed", "2"])
        assert (a / "00000_clean.pgm").read_bytes() != (b / "00000_clean.pgm").read_bytes()


class TestAbortExitCode:
    @pytest.fixture()
    def aborting(self, monkeypatch):
        def aborted_run(*args, **kwargs):
            return TrainResult(checkpoint=Checkpoint(step=3), aborted=True)
        monkeypatch.setattr(cli, "train_teacher", aborted_run)
        monkeypatch.setattr(cli, "distill", aborted_run)

    def test_train_teacher_abort(self, aborting, tiny_run, tmp_path, capsys):
        _, cfg_path = tiny_run
        out = tmp_path / "teacher.skdc"
        assert EXIT_ABORTED not in (0, 1, 2)
        assert main(["train-teacher", "--config", str(cfg_path), "--out", str(out)]) \
            == EXIT_ABORTED
        assert load_checkpoint(out).step == 3
        assert capsys.readouterr().out.startswith("aborted")

    def test_forward_overflow_writes_the_checkpoint(self, monkeypatch, tiny_run,
                                                    tmp_path, capsys):
        _, cfg_path = tiny_run
        out = tmp_path / "teacher.skdc"
        real_step = trainer.adam_step

        def diverging_step(params, *args):
            state = real_step(params, *args)
            if state.t == 1:
                # finite weights whose forward overflows at the next step
                for p in params:
                    p.data = p.data * 1e300
            return state

        monkeypatch.setattr(trainer, "adam_step", diverging_step)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train-teacher", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_ABORTED
        ckpt = load_checkpoint(out)
        assert ckpt.step == 1 and ckpt.meta["aborted"] is True
        assert capsys.readouterr().out.startswith("aborted (non-finite loss at step 1)")

    def test_distill_abort(self, aborting, tiny_run, tmp_path, capsys):
        _, cfg_path = tiny_run
        teacher, out = tmp_path / "teacher.skdc", tmp_path / "student.skdc"
        save_checkpoint(Checkpoint(), teacher)
        assert main(["distill", "--config", str(cfg_path), "--teacher", str(teacher),
                     "--out", str(out)]) == EXIT_ABORTED
        assert load_checkpoint(out).step == 3


class TestBoundaryErrors:
    """Bad input at a boundary gives exit 1 or 2 and an error line, never a traceback."""

    @pytest.fixture()
    def dataset(self, tiny_run, tmp_path):
        _, cfg_path = tiny_run
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(cfg_path), "--out", str(data)]) == 0
        ckpt = tmp_path / "bare.skdc"
        save_checkpoint(Checkpoint(), ckpt)
        return data, ckpt

    def eval_exit(self, data, ckpt, tmp_path, capsys):
        capsys.readouterr()
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--report", str(tmp_path / "r.json")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(3, 0), (2, 0, 4)])
    def test_zero_extent_net_tensor(self, dataset, tiny_run, tmp_path, capsys, shape):
        # the checkpoint loads; the net then refuses the shape
        run, _ = tiny_run
        data, _ = dataset
        net = build_net(run.model, 0)
        tensors = {f"net.{k}": v for k, v in net.state_arrays().items()}
        name = next(iter(tensors))
        tensors[name] = np.zeros(shape)
        ckpt = tmp_path / "empty.skdc"
        save_checkpoint(Checkpoint(meta={"model": run.model.to_dict()}, tensors=tensors), ckpt)
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert f"parameter {name[len('net.'):]} has shape {shape}" in err

    def test_negative_seed_is_a_usage_error(self, tiny_run, tmp_path, capsys):
        _, cfg_path = tiny_run
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--spec", str(cfg_path), "--out", str(tmp_path / "d"),
                  "--seed", "-1"])
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_wrongly_typed_config_value(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": {"base_channels": "x"}}))
        assert main(["count", "--config", str(path)]) == 1
        assert "model.base_channels" in capsys.readouterr().err

    def test_non_finite_config_value(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"train": {"loss": {"tau": NaN}}}')
        assert main(["count", "--config", str(path)]) == 1
        assert "train.loss.tau must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["synth", "--spec", "{cfg}", "--out", "{tmp}/data"],
        ["train-teacher", "--config", "{cfg}", "--out", "{tmp}/t.skdc"],
        ["distill", "--config", "{cfg}", "--teacher", "{tmp}/t.skdc", "--out", "{tmp}/s.skdc"],
    ])
    def test_negative_noise_sigma_exits_1(self, tiny_run, tmp_path, capsys, command):
        run, _ = tiny_run
        blob = run.to_dict()
        blob["data"]["noise_sigma"] = -0.1
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(blob))
        argv = [a.format(cfg=path, tmp=tmp_path) for a in command]
        assert main(argv) == 1
        assert "noise_sigma must be >= 0" in capsys.readouterr().err

    # the objective's kernel distance, temperature, spatial softmax and
    # mixed-term weight are fixed
    @pytest.mark.parametrize("key, value", [
        ("gk_mode", "per-element-mean"), ("lambda_kind", "sqrt_dim"),
        ("lambda_value", None), ("spatial_axis", "columns"), ("alpha1", 0.5),
    ])
    def test_removed_loss_key_is_a_config_error(self, tiny_run, tmp_path, capsys, key, value):
        run, _ = tiny_run
        blob = run.to_dict()
        blob["train"]["loss"][key] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match="train.loss"):
            load_run_config(path)
        assert main(["count", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    # Adam's hyper-parameters and the schedule's floor are fixed, and every
    # tap is distilled
    @pytest.mark.parametrize("key, value", [
        ("beta1", 0.9), ("beta2", 0.999), ("adam_eps", 1e-8), ("distill_blocks", [0]),
        ("lr_min", 1e-6),
    ])
    def test_removed_train_key_is_a_config_error(self, tiny_run, tmp_path, capsys,
                                                 key, value):
        run, _ = tiny_run
        blob = run.to_dict()
        blob["train"][key] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match="train"):
            load_run_config(path)
        assert main(["count", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    # the projector width is `train.loss.unified_dim`, not a model field
    @pytest.mark.parametrize("section", ["model", "student_model"])
    def test_model_projector_width_is_a_config_error(self, tiny_run, tmp_path, capsys,
                                                     section):
        run, _ = tiny_run
        blob = run.to_dict()
        blob[section]["unified_dim"] = 8
        path = tmp_path / "old.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=section):
            load_run_config(path)
        assert main(["count", "--config", str(path)]) == 1
        assert "unified_dim" in capsys.readouterr().err

    def test_distill_student_channels_must_match_the_teacher(self, tiny_run, tmp_path,
                                                              capsys):
        run, _ = tiny_run
        teacher, out = tmp_path / "teacher.skdc", tmp_path / "student.skdc"
        save_working_checkpoint(run, teacher)
        rgb = replace(run, model=replace(run.model, input_channels=3),
                      student_model=replace(run.student_model, input_channels=3),
                      train=replace(run.train, loss=replace(run.train.loss, alpha2=0.0,
                                                            alpha3=0.0)),
                      data=replace(run.data, channels=3))
        path = tmp_path / "rgb.json"
        save_run_config(rgb, path)
        assert main(["distill", "--config", str(path), "--teacher", str(teacher),
                     "--out", str(out)]) == 1
        assert "error: student input_channels 3 differ" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_model_with_projector_width(self, tiny_run, dataset, tmp_path,
                                                   capsys):
        run, _ = tiny_run
        data, ckpt = dataset
        tensors = {f"net.{k}": v for k, v in build_net(run.model, 0).state_arrays().items()}
        model = {**run.model.to_dict(), "unified_dim": 8}
        save_checkpoint(Checkpoint(meta={"model": model}, tensors=tensors), ckpt)
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert "unified_dim" in err and "Traceback" not in err

    # a missing count must not become CorpusSpec's default
    @pytest.mark.parametrize("key", ["task", "count", "channels", "patch_size", "base_seed"])
    def test_manifest_missing_key(self, dataset, tmp_path, capsys, key):
        data, ckpt = dataset
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest[key]
        (data / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert key in err

    def test_manifest_unknown_key(self, tiny_run, dataset, tmp_path, capsys):
        run, _ = tiny_run
        data, ckpt = dataset
        save_working_checkpoint(run, ckpt)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["bogus"] = 1
        (data / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert "bogus" in err and str(data / "manifest.json") in err
        assert not (tmp_path / "r.json").exists()

    # the rain streaks' angle and length are constants of the corpus
    @pytest.mark.parametrize("key, value", [("rain_angle", 70.0), ("rain_length", 9.0)])
    def test_removed_rain_key_is_a_config_error(self, tiny_run, dataset, tmp_path, capsys,
                                                key, value):
        run, _ = tiny_run
        data, ckpt = dataset
        save_working_checkpoint(run, ckpt)
        blob = run.to_dict()
        blob["data"][key] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(blob))
        capsys.readouterr()
        assert main(["count", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "fields at data" in err and key in err
        manifest = json.loads((data / "manifest.json").read_text())
        manifest[key] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert key in err and str(data / "manifest.json") in err

    # manifests written before the manifest became CorpusSpec's dict form
    def test_five_key_manifest_still_evaluates(self, tiny_run, dataset, tmp_path, capsys):
        run, _ = tiny_run
        data, ckpt = dataset
        save_working_checkpoint(run, ckpt)
        assert self.eval_exit(data, ckpt, tmp_path, capsys)[0] == 0
        full_report = (tmp_path / "r.json").read_bytes()
        manifest = json.loads((data / "manifest.json").read_text())
        old = {k: manifest[k] for k in ("task", "count", "channels", "patch_size", "base_seed")}
        (data / "manifest.json").write_text(json.dumps(old))
        assert self.eval_exit(data, ckpt, tmp_path, capsys)[0] == 0
        assert (tmp_path / "r.json").read_bytes() == full_report

    # a bad value must not reach the report: the checkpoint here is a working one
    @pytest.mark.parametrize("key, value", [
        ("task", "deblurr"), ("task", 7),
        ("base_seed", -1), ("base_seed", "x"), ("base_seed", True),
        ("channels", True), ("channels", 1.0),
    ])
    def test_manifest_bad_value(self, tiny_run, dataset, tmp_path, capsys, key, value):
        run, _ = tiny_run
        data, ckpt = dataset
        save_working_checkpoint(run, ckpt)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest[key] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert key in err
        assert not (tmp_path / "r.json").exists()

    def test_mixed_image_sizes(self, tiny_run, dataset, tmp_path, capsys):
        run, _ = tiny_run
        data, ckpt = dataset
        save_working_checkpoint(run, ckpt)
        large = make_samples(replace(run.data, patch_size=64, count=1))[0]
        write_image(data / "00001_clean.pgm", large.clean)
        write_image(data / "00001_degraded.pgm", large.degraded)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["count"] = 2
        (data / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert f"{data / '00001_clean.pgm'} is (1, 64, 64), the manifest says (1, 16, 16)" in err
        assert not (tmp_path / "r.json").exists()

    def test_images_not_of_the_manifest_patch_size(self, tiny_run, dataset, tmp_path, capsys):
        run, _ = tiny_run
        data, ckpt = dataset
        save_working_checkpoint(run, ckpt)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["patch_size"] = 64
        (data / "manifest.json").write_text(json.dumps(manifest))
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert f"{data / '00000_clean.pgm'} is (1, 16, 16), the manifest says (1, 64, 64)" in err
        assert not (tmp_path / "r.json").exists()

    def test_manifest_not_json(self, dataset, tmp_path, capsys):
        data, ckpt = dataset
        (data / "manifest.json").write_text("{count: 8")
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert "invalid JSON" in err

    def test_manifest_nested_too_deep(self, dataset, tmp_path, capsys):
        data, ckpt = dataset
        (data / "manifest.json").write_text("[" * 200_000)
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error:") and "invalid JSON" in err
        assert not (tmp_path / "r.json").exists()

    def test_garbled_image_header(self, dataset, tmp_path, capsys):
        data, ckpt = dataset
        (data / "00002_clean.pgm").write_bytes(b"P5\n1x 16\n255\n" + bytes(256))
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert "header" in err

    def test_checkpoint_without_model_meta(self, dataset, tmp_path, capsys):
        data, ckpt = dataset
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert "model" in err

    def test_version_1_checkpoint(self, tiny_run, dataset, tmp_path, capsys):
        # version 1 held a reserved RNG-state block and a dtype byte per tensor
        run, _ = tiny_run
        data, _ = dataset
        meta = json.dumps({"model": run.model.to_dict()}).encode()
        ckpt = tmp_path / "v1.skdc"
        ckpt.write_bytes(b"SKDC" + struct.pack("<IQI", 1, 0, 2) + b"{}"
                         + struct.pack("<I", len(meta)) + meta + struct.pack("<I", 0))
        code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "version 1" in err and "expected 2" in err

    # (1e7)^2 pixels is 1.42 PiB per grid, past the 128 TiB user address
    # space, so numpy refuses it at once and nothing is allocated
    @pytest.mark.parametrize("command", [
        ["synth", "--spec", "{cfg}", "--out", "{tmp}/data"],
        ["train-teacher", "--config", "{cfg}", "--out", "{tmp}/t.skdc"],
    ])
    def test_unallocatable_patch_size_exits_1(self, tiny_run, tmp_path, capsys, command):
        run, _ = tiny_run
        blob = run.to_dict()
        blob["data"]["patch_size"] = 10**7
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(blob))
        argv = [a.format(cfg=path, tmp=tmp_path) for a in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Unable to allocate" in err and "Traceback" not in err

    # numpy cannot even describe a (2, 1e10, 1e10) grid: the spec refuses the
    # size before any array is asked for
    @pytest.mark.parametrize("command", [
        ["synth", "--spec", "{cfg}", "--out", "{tmp}/data"],
        ["train-teacher", "--config", "{cfg}", "--out", "{tmp}/t.skdc"],
    ])
    def test_patch_size_above_cap_exits_1(self, tiny_run, tmp_path, capsys, command):
        run, _ = tiny_run
        blob = run.to_dict()
        blob["data"]["patch_size"] = 10**10
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(blob))
        argv = [a.format(cfg=path, tmp=tmp_path) for a in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "patch size must be in [1, 100000000]" in err and "Traceback" not in err

    # NaN is refused on load; 1e308 in the last layer overflows the output
    @pytest.mark.parametrize("name,value,match", [("embed.b", np.nan, "embed.b"),
                                                  ("final.w", 1e308, "output")])
    def test_non_finite_checkpoint(self, tiny_run, dataset, tmp_path, capsys,
                                   name, value, match):
        run, _ = tiny_run
        data, ckpt = dataset
        tensors = {f"net.{k}": v for k, v in build_net(run.model, 0).state_arrays().items()}
        tensors[f"net.{name}"].flat[0] = value
        save_checkpoint(Checkpoint(meta={"model": run.model.to_dict()}, tensors=tensors), ckpt)
        with np.errstate(over="ignore", invalid="ignore"):
            code, err = self.eval_exit(data, ckpt, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error:") and match in err
        assert "Traceback" not in err


def test_gradcheck_command_exit_zero(capsys):
    # seeds 4 and 7 failed on round-off alone before the bound took it off
    for seed in (0, 4, 7):
        assert main(["gradcheck", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert "147 trials" in out and f"0 failing checks at seed {seed} " in out


def test_gradcheck_command_fails_on_non_finite_gradient(monkeypatch, capsys):
    # finite at x0, NaN numeric gradient: x0 - eps leaves log's domain
    def suite(seed):
        return [gradsuite._run(seed, "log near zero", 1,
                               lambda r, i: (lambda x: T.sum_(T.log(x)), T.Tensor([5e-6])))]
    monkeypatch.setattr(cli, "run_gradcheck_suite", suite)
    with np.errstate(invalid="ignore"):
        assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL log near zero" in out and "1 failing checks at seed 0 " in out


# the gate is fixed, so no tolerance value passes: argparse refuses the flag itself
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-4", "x"])
def test_gradcheck_tolerance_must_be_finite_and_positive(monkeypatch, capsys, tol):
    monkeypatch.setattr(cli, "run_gradcheck_suite", lambda seed: [])
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", f"--tol={tol}"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --tol={tol}" in capsys.readouterr().err


def test_gradcheck_has_no_tolerance_flag(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    # the gate is the fixed audit bound: an error of 1e-4 fails
    monkeypatch.setattr(cli, "run_gradcheck_suite", lambda seed: [
        gradsuite.CheckResult("under", 1, 0.99e-4), gradsuite.CheckResult("at", 1, 1e-4)])
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "ok   under" in out and "FAIL at" in out
    assert "1 failing checks at seed 0 (tolerance 0.0001)" in out


@pytest.fixture(scope="module")
def argv_pool(tmp_path_factory):
    """Paths for the fuzz of `main`: good and bad configs, data and checkpoints."""
    root = tmp_path_factory.mktemp("fuzz")
    run = RunConfig(
        model=ModelConfig([1, 1], base_channels=4, input_channels=1),
        data=CorpusSpec(count=2, patch_size=16, task="denoise", noise_sigma=0.1, base_seed=1))
    good = root / "good.json"
    save_run_config(run, good)
    (root / "bad_utf8.json").write_bytes(b'{"model": "\xff"}')
    (root / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (root / "unknown.json").write_text('{"train": {"momentum": 0.9}}')
    (root / "negative_noise.json").write_text('{"data": {"noise_sigma": -0.1}}')
    data = root / "data"
    assert main(["synth", "--spec", str(good), "--out", str(data)]) == 0
    ckpt = root / "net.skdc"
    save_working_checkpoint(run, ckpt)
    missing, a_dir = root / "missing", root / "empty"
    a_dir.mkdir()
    configs = [good, root / "bad_utf8.json", root / "deep.json", root / "unknown.json",
               root / "negative_noise.json", a_dir, missing]
    return {"config": [str(p) for p in configs],
            "out": [str(root / "out"), str(good), str(a_dir)],
            "ckpt": [str(ckpt), str(good), str(a_dir), str(missing)],
            "data": [str(data), str(a_dir), str(good), str(missing)],
            "report": [str(root / "report.json"), str(a_dir)],
            "size": ["16", "2", "0", "-4", "3", "x", "1e3", "1099511627776"],
            "seed": ["0", "7", "-1", "x", "1.5"],
            "task": ["denoise", "deblur", "bogus"]}


@st.composite
def cli_argv(draw, pool):
    pick = lambda key: draw(st.sampled_from(pool[key]))
    command = draw(st.sampled_from(["count", "synth", "eval"]))
    if command == "count":
        argv = ["count", "--config", pick("config")]
        optional = [("--baseline", "config"), ("--size", "size")]
    elif command == "synth":
        argv = ["synth", "--spec", pick("config"), "--out", pick("out")]
        optional = [("--seed", "seed"), ("--task", "task")]
    else:
        argv = ["eval", "--ckpt", pick("ckpt"), "--data", pick("data"),
                "--report", pick("report")]
        optional = []
    for flag, key in optional:
        if draw(st.booleans()):
            argv += [flag, pick(key)]
    return argv


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_main_fails_only_with_exit_codes(argv_pool, data):
    argv = data.draw(cli_argv(argv_pool))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv


ROOT = Path(__file__).resolve().parents[1]


def run_child(*args, **env_vars):
    """Run python with `args` from the repository root, with `env_vars` set.
    src goes first on PYTHONPATH so the child imports this checkout's
    package, whatever directory pytest was started from."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env)


def test_module_entry_point():
    proc = run_child("-m", "skdistill", "--help")
    assert proc.returncode == 0
    assert "synth" in proc.stdout


def test_smoke_script_runs_the_sample_config():
    proc = run_child("scripts/run_smoke.py", "--steps", "10", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for prefix in ("teacher   [   10 steps", "distilled [   10 steps", "plain     [   10 steps"):
        assert sum(line.startswith(prefix) for line in lines) == 1, prefix
    run = load_run_config(ROOT / "configs" / "denoise32.json")
    # the plain line is `distill` at zero weights on the same run: one
    # 10-step epoch at seed 0 for the teacher and for the student
    plain_loss = replace(run.train.loss, alpha2=0.0, alpha3=0.0)
    smoke = replace(run, data=replace(run.data, base_seed=0),
                    train=replace(run.train, epochs=1, seed=0, loss=plain_loss))
    samples, held = trainer.make_train_heldout(smoke)
    teacher = trainer.train_teacher(smoke, samples, held).checkpoint
    plain = trainer.distill(smoke, teacher, samples, held).eval_history[-1]
    plain_line = next(line for line in lines if line.startswith("plain "))
    assert f"psnr {plain['psnr_restored']:.2f} dB" in plain_line
    size = run.data.patch_size
    (tp, tf), (sp, sf) = (count_params_flops(m, size, size)
                          for m in (run.model, run.student_model))
    p_red, f_red = reduction_percentages(run.model, run.student_model, size, size)
    assert lines[-1] == (f"teacher {tp:,} params / {tf:,} flops; student {sp:,} / {sf:,} "
                         f"(-{p_red:.1f}% / -{f_red:.1f}%)")


# Two steps each of teacher training and distillation of the
# configs/denoise32.json nets at 32 px, saved to the directory in argv[1];
# prints the process's thread count where /proc shows it
TRAIN_TWO_STEPS = """
import dataclasses, os, sys
from skdistill.checkpoint import save_checkpoint
from skdistill.config import load_run_config
from skdistill.trainer import distill, make_train_heldout, train_teacher
run = load_run_config("configs/denoise32.json")
run = dataclasses.replace(run, data=dataclasses.replace(run.data, count=8),
                          train=dataclasses.replace(run.train, epochs=1))
samples, held = make_train_heldout(run)
teacher = train_teacher(run, samples, held).checkpoint
save_checkpoint(teacher, os.path.join(sys.argv[1], "teacher.skdc"))
student = distill(run, teacher, samples, held).checkpoint
save_checkpoint(student, os.path.join(sys.argv[1], "student.skdc"))
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "")
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one core")
def test_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    files, thread_counts = [], []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        proc = run_child("-c", TRAIN_TWO_STEPS, str(out), OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        thread_counts.append(proc.stdout.strip())
        files.append([(out / name).read_bytes() for name in ("teacher.skdc", "student.skdc")])
    # the setting reached the BLAS: the two-thread child runs more threads
    assert thread_counts[0] != thread_counts[1] or thread_counts == ["", ""]
    assert files[0] == files[1]
