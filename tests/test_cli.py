"""CLI harness: every subcommand, exit codes, determinism, resume equivalence."""

import csv
import dataclasses
import re
import shutil

import numpy as np
import pytest

import restr.tensor as T
from restr import decoder, training
from restr.checkpoint import load_checkpoint, save_checkpoint
from restr.cli import main
from restr.data import VOCABULARY, DataFormatError, Dataset, generate, load, save
from restr.training import segmentation_loss

from conftest import read_pgm, read_ppm


TRAIN_FLAGS = ["--patch_size", "4", "--dim_vision", "16", "--dim_language", "16",
               "--dim_fusion", "16", "--vision_layers", "1",
               "--language_layers", "1", "--fusion_layers", "2",
               "--heads", "2", "--max_tokens", "8",
               "--base_lr", "1e-4", "--warmup_iters", "2",
               "--batch_size", "4", "--seed", "5", "--log_every", "1"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["gen", "--seed", "3", "--count", "8", "--size", "32",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(dataset_dir), "--out", str(out),
                 "--quiet", "--total_iters", "4", *TRAIN_FLAGS])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def misfit_data(tmp_path_factory):
    """Datasets that the ``trained`` model (full vocabulary, 32x32) does not
    fit, each with the error that names the mismatch."""
    root = tmp_path_factory.mktemp("misfit")
    save(generate(3, 4, 32, 32, vocab=VOCABULARY[:6]), root / "vocab")
    save(generate(3, 4, 64, 64), root / "size")
    return {"vocab": (root / "vocab", "dataset vocab_size 6 does not match the "
                      f"checkpoint's vocab_size {len(VOCABULARY)}"),
            "size": (root / "size", "dataset image_h 64 does not match the "
                     "checkpoint's image_h 32")}


def no_forward(*args, **kwargs):
    raise AssertionError("the model ran before the input was checked")


def nan_weight_checkpoint(trained, tmp_path):
    """The trained checkpoint with one NaN in the decoder's final weight."""
    cfg, params, opt_state = load_checkpoint(trained / "checkpoint.rstr")
    params.decoder.final.w.data[0, 0] = np.nan
    bad = tmp_path / "nan.rstr"
    save_checkpoint(bad, cfg, params, opt_state)
    return bad


class TestGen:
    def test_deterministic_directories(self, tmp_path):
        for name in ("a", "b"):
            assert main(["gen", "--seed", "7", "--count", "4", "--size", "32",
                         "--out", str(tmp_path / name)]) == 0
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_count_zero_is_usage_error(self, tmp_path):
        assert main(["gen", "--count", "0", "--out", str(tmp_path / "x")]) == 1

    def test_small_canvas_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--count", "2", "--size", "16",
                     "--out", str(tmp_path / "x")]) == 1
        assert "--size must be >= 32, got 16" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_generated_index_loads(self, dataset_dir):
        ds = load(dataset_dir)
        assert len(ds) == 8


class TestTrain:
    def test_outputs_exist(self, trained):
        assert (trained / "checkpoint.rstr").is_file()
        assert (trained / "train_log.csv").is_file()
        with open(trained / "train_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert float(rows[0]["loss_total"]) > 0
        assert float(rows[0]["grad_norm"]) > 0
        with open(trained / "train_timing.csv") as fh:
            timing = list(csv.DictReader(fh))
        assert [r["iter"] for r in timing] == [r["iter"] for r in rows]
        assert all(float(r["wall_ms"]) > 0 and float(r["samples_per_s"]) > 0
                   for r in timing)

    def test_missing_data_dir(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, dataset_dir, capsys):
        # the recipe constants of restr.training are not keys either
        config = tmp_path / "bad.cfg"
        for line in ("not_a_key = 3", "beta1 = 0.9", "beta2 = 0.999", "adam_eps = 1e-8",
                     "poly_power = inf"):
            config.write_text(line + "\n")
            assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                         "--quiet", "--total_iters", "2", *TRAIN_FLAGS,
                         "--config", str(config)]) == 1, line
            assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value,extra,message", [
        ("0.9", [], "needs periodic evaluation"),
        ("nan", ["--eval_every", "1"], "must lie in (0, 1]"),
        ("1.5", ["--eval_every", "1"], "must lie in (0, 1]")])
    def test_unreachable_stop_at_iou_rejected(self, tmp_path, dataset_dir, capsys,
                                              value, extra, message):
        # each of these used to train to total_iters without stopping or warning
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--quiet", "--total_iters", "4", *TRAIN_FLAGS, *extra,
                     "--stop-at-iou", value]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # rejected input leaves no --out

    @pytest.mark.parametrize("command", ["train", "profile"])
    def test_unknown_fusion_variant_names_the_valid_ones(self, tmp_path, dataset_dir,
                                                         capsys, command):
        io = (["--data", str(dataset_dir), "--out", str(tmp_path / "o")]
              if command == "train" else [])
        assert main([command, *io, "--fusion_variant", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "unknown fusion variant 'bogus'" in err
        assert all(f"'{v}'" in err for v in ("vme", "ime", "cme", "cme_shared"))
        assert not (tmp_path / "o").exists()

    def test_existing_out_directory_is_reused(self, tmp_path, dataset_dir):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                     "--quiet", "--total_iters", "2", *TRAIN_FLAGS]) == 0
        assert (out / "notes.txt").read_text() == "kept\n"
        assert (out / "checkpoint.rstr").is_file()

    def test_identical_seeds_identical_logs(self, tmp_path, dataset_dir):
        logs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                         "--quiet", "--total_iters", "3", *TRAIN_FLAGS]) == 0
            logs.append((out / "train_log.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_resume_equivalence(self, tmp_path, dataset_dir):
        full = tmp_path / "full"
        assert main(["train", "--data", str(dataset_dir), "--out", str(full),
                     "--quiet", "--total_iters", "6", *TRAIN_FLAGS]) == 0
        part = tmp_path / "part"
        assert main(["train", "--data", str(dataset_dir), "--out", str(part),
                     "--quiet", "--total_iters", "6", "--stop-after", "3",
                     *TRAIN_FLAGS]) == 0
        resumed = tmp_path / "resumed"
        assert main(["train", "--data", str(dataset_dir), "--out", str(resumed),
                     "--quiet", "--resume", str(part / "checkpoint.rstr"),
                     "--total_iters", "6", *TRAIN_FLAGS]) == 0

        def read_losses(path):
            with open(path / "train_log.csv") as fh:
                return {int(r["iter"]): float(r["loss_total"])
                        for r in csv.DictReader(fh)}

        full_losses = read_losses(full)
        resumed_losses = read_losses(resumed)
        assert set(resumed_losses) == {4, 5, 6}
        next_full, next_resumed = full_losses[4], resumed_losses[4]
        assert abs(next_full - next_resumed) / abs(next_full) < 1e-4

    def resume(self, trained, dataset_dir, out, *flags):
        return main(["train", "--data", str(dataset_dir), "--out", str(out), "--quiet",
                     "--resume", str(trained / "checkpoint.rstr"), "--total_iters", "5",
                     *TRAIN_FLAGS, *flags])

    def test_resume_accepts_checkpoint_architecture(self, tmp_path, trained, dataset_dir):
        assert self.resume(trained, dataset_dir, tmp_path / "o", "--heads", "2",
                           "--vocab_size", str(len(VOCABULARY))) == 0

    @pytest.mark.parametrize("flag,value,have", [("--heads", "4", "2"),
                                                  ("--dim_fusion", "32", "16"),
                                                  ("--fusion_variant", "vme", "cme")])
    def test_resume_rejects_architecture_flag(self, tmp_path, trained, dataset_dir,
                                              capsys, flag, value, have):
        assert self.resume(trained, dataset_dir, tmp_path / "o", flag, value) == 1
        key = flag[2:]
        assert (f"{flag} {value} does not match the checkpoint's {key} {have}"
                in capsys.readouterr().err)

    def test_resume_rejects_smaller_vocabulary(self, tmp_path, trained, misfit_data,
                                               capsys):
        data, message = misfit_data["vocab"]
        assert self.resume(trained, data, tmp_path / "o") == 1
        assert message in capsys.readouterr().err

    def test_resume_rejects_other_image_size(self, tmp_path, trained, misfit_data,
                                             capsys):
        data, message = misfit_data["size"]
        assert self.resume(trained, data, tmp_path / "o") == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["ablate", "--what", "variant"]])
    @pytest.mark.parametrize("key,value,have", [("image_h", "32", "64"), ("channels", "1", "3")])
    def test_image_shape_override_is_checked_before_out(self, tmp_path, misfit_data,
                                                        monkeypatch, capsys, command,
                                                        key, value, have):
        # train made --out, then failed at the first forward on the batch shape
        data, _ = misfit_data["size"]
        monkeypatch.setattr(training, "encode", no_forward)
        assert main([*command, "--data", str(data), "--out", str(tmp_path / "o"),
                     "--total_iters", "2", *TRAIN_FLAGS, f"--{key}", value]) == 1
        assert (f"--{key} {value} does not match the dataset's {key} {have}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_vocab_size_compared_as_a_number(self, tmp_path, dataset_dir):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--quiet", "--total_iters", "2", *TRAIN_FLAGS,
                     "--vocab_size", f"0{len(VOCABULARY)}"]) == 0

    def test_nan_weight_stops_training(self, tmp_path, trained, dataset_dir, capsys):
        bad = nan_weight_checkpoint(trained, tmp_path)
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--resume", str(bad), "--quiet", "--total_iters", "6",
                     *TRAIN_FLAGS]) == 2
        assert "'decoder.final.w' holds a non-finite value" in capsys.readouterr().err

    def test_nan_loss_stops_training(self, tmp_path, dataset_dir, capsys, monkeypatch):
        def nan_pixel_term(*args):
            total, patch_term, pixel_term = segmentation_loss(*args)
            return total, patch_term, T.scale(pixel_term, np.nan)

        monkeypatch.setattr(training, "segmentation_loss", nan_pixel_term)
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--quiet", "--total_iters", "4", *TRAIN_FLAGS]) == 2
        assert "iteration 1: pixel term is nan" in capsys.readouterr().err

    def test_nan_gradient_stops_training(self, tmp_path, dataset_dir, capsys, monkeypatch):
        real_step = training.AdamW.step

        def poisoned_step(self, lr):  # a backward that left a NaN behind
            dict(self.params)["decoder.final.w"].grad[0, 0] = np.nan
            return real_step(self, lr)

        monkeypatch.setattr(training.AdamW, "step", poisoned_step)
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--quiet", "--total_iters", "4", *TRAIN_FLAGS]) == 2
        assert ("non-finite gradient at iteration 1: decoder.final.w"
                in capsys.readouterr().err)


    @pytest.mark.parametrize("flag,value", [
        ("log_every", "0"), ("base_lr", "nan"), ("lam", "nan"), ("weight_decay", "-1"),
        ("total_iters", "0")])
    def test_malformed_train_config_rejected(self, tmp_path, dataset_dir, capsys,
                                             flag, value):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--quiet", "--total_iters", "4", *TRAIN_FLAGS,
                     f"--{flag}", value]) == 1
        assert f"error: {flag} must" in capsys.readouterr().err


class TestEval:
    def test_eval_deterministic_reports(self, tmp_path, trained, dataset_dir):
        reports = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(["eval", "--ckpt", str(trained / "checkpoint.rstr"),
                         "--data", str(dataset_dir), "--out", str(out),
                         "--buckets", "1-2,3,4-5,6-20"]) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_report_contains_reference_buckets(self, tmp_path, trained, dataset_dir):
        out = tmp_path / "e3"
        assert main(["eval", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(dataset_dir), "--out", str(out)]) == 0
        text = (out / "report.csv").read_text()
        assert "cumulative_iou" in text and "prec,0.5" in text
        with open(out / "ious.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["sample"]) for r in rows] == list(range(8))
        inter = sum(int(r["intersection"]) for r in rows)
        union = sum(int(r["union"]) for r in rows)
        cumulative = float(text.split("cumulative_iou,,")[1].split()[0])
        assert abs(inter / union - cumulative) < 1e-6
        for r in rows:
            u = int(r["union"])
            iou = int(r["intersection"]) / u if u else 1.0
            assert abs(float(r["iou"]) - iou) < 1e-6

    def test_long_expression_evaluates(self, tmp_path, trained, dataset_dir, capsys):
        # the loader keeps all 48 tokens; the model reads the first max_tokens
        long = tmp_path / "long"
        shutil.copytree(dataset_dir, long)
        lines = (long / "index.txt").read_text().splitlines()
        lines[1] = " ".join(lines[1].split()[:3] + ["2"] * 48)
        (long / "index.txt").write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="truncated"):
            assert main(["eval", "--ckpt", str(trained / "checkpoint.rstr"),
                         "--data", str(long)]) == 0
        assert "IoU len 6-20" in capsys.readouterr().out

    def test_uncovered_bucket_fails_before_forward(self, trained, dataset_dir,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(decoder, "encode", no_forward)
        assert main(["eval", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(dataset_dir), "--buckets", "1-2"]) == 1
        assert "not covered by" in capsys.readouterr().err

    @pytest.mark.parametrize("misfit", ["vocab", "size"])
    def test_dataset_the_model_does_not_fit(self, tmp_path, trained, misfit_data,
                                            misfit, monkeypatch, capsys):
        data, message = misfit_data[misfit]
        monkeypatch.setattr(decoder, "encode", no_forward)
        assert main(["eval", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(data), "--out", str(tmp_path / "e")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_missing_checkpoint(self, tmp_path, dataset_dir):
        assert main(["eval", "--ckpt", str(tmp_path / "no.rstr"),
                     "--data", str(dataset_dir)]) == 2

    def test_nan_pixel_dataset(self, tmp_path, trained, dataset_dir):
        bad = tmp_path / "bad"
        shutil.copytree(dataset_dir, bad)
        blob = bytearray((bad / "0000.img").read_bytes())
        blob[:4] = np.array([np.nan], dtype="<f4").tobytes()
        (bad / "0000.img").write_bytes(bytes(blob))
        assert main(["eval", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(bad)]) == 2

    def test_nan_weight_checkpoint(self, tmp_path, trained, dataset_dir, capsys):
        bad = nan_weight_checkpoint(trained, tmp_path)
        assert main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir)]) == 2
        assert "'decoder.final.w' holds a non-finite value" in capsys.readouterr().err

    def test_duplicate_sample_id(self, tmp_path, trained, dataset_dir):
        bad = tmp_path / "dup"
        shutil.copytree(dataset_dir, bad)
        lines = (bad / "index.txt").read_text().splitlines()
        lines[2] = "0" + lines[2][lines[2].index(" "):]  # ids 0 0 2 3 ...
        (bad / "index.txt").write_text("\n".join(lines) + "\n")
        assert main(["eval", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(bad)]) == 2

    def test_repeated_parameter_name(self, tmp_path, trained, dataset_dir, capsys):
        cfg, _, _ = load_checkpoint(trained / "checkpoint.rstr")
        cfg = dataclasses.replace(cfg, vision_layers=2)
        bad = tmp_path / "dup.rstr"
        save_checkpoint(bad, cfg, decoder.init_model(np.random.default_rng(0), cfg))
        blob, old = bad.read_bytes(), b"vision.stack.blocks.0.mlp.w1"
        assert blob.count(old) == 1
        bad.write_bytes(blob.replace(old, b"vision.stack.blocks.1.mlp.w1"))
        assert main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir)]) == 2
        assert ("found parameter 'vision.stack.blocks.1.mlp.w1' where "
                "'vision.stack.blocks.0.mlp.w1' belongs" in capsys.readouterr().err)

    def test_permuted_records(self, tmp_path, trained, dataset_dir, monkeypatch, capsys):
        # Two records swapped with their AdamW m/v blobs: each tensor loaded
        # the other's moments.
        cfg, params, state = load_checkpoint(trained / "checkpoint.rstr")
        named = params.named_parameters()
        i = [n for n, _ in named].index("vision.stack.blocks.0.ln1.gain")
        assert named[i + 1][0] == "vision.stack.blocks.0.ln1.bias"
        order = [*range(i), i + 1, i, *range(i + 2, len(named))]
        monkeypatch.setattr(params, "named_parameters", lambda: [named[k] for k in order])
        state = {"step": state["step"], "m": [state["m"][k] for k in order],
                 "v": [state["v"][k] for k in order]}
        save_checkpoint(tmp_path / "perm.rstr", cfg, params, state)
        assert main(["eval", "--ckpt", str(tmp_path / "perm.rstr"),
                     "--data", str(dataset_dir)]) == 2
        assert ("found parameter 'vision.stack.blocks.0.ln1.bias' where "
                "'vision.stack.blocks.0.ln1.gain' belongs" in capsys.readouterr().err)

    @pytest.mark.parametrize("mixed_sizes", [True, False])
    def test_dataset_index_faults(self, tmp_path, trained, capsys, mixed_sizes):
        bad = tmp_path / "bad"
        if mixed_sizes:
            save(Dataset(generate(3, 2, 32, 32).samples + generate(3, 2, 64, 64).samples), bad)
            message = "sample 2: image size 64x64 differs from sample 0's 32x32"
        else:  # ids 0, 5, 2: loaded as 3 samples, which --ids and ious.csv count by position
            save(generate(3, 6, 32, 32), bad)
            lines = (bad / "index.txt").read_text().splitlines()
            (bad / "index.txt").write_text("\n".join(lines[k] for k in (0, 1, 6, 3)) + "\n")
            message = "sample id 5 listed at position 1"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load(bad)
        assert main(["eval", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(bad)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [(b"image_h", b"Xmage_h"),
                                         (b"patch_size = 4", b"patch_size = 3"),
                                         (b"heads = 2", b"heads = 3"),
                                         (b"image_h = 32", b"image_h = -8"),
                                         (b"heads = 2", b"heads = 0"),
                                         (b"variant = cme", b"variant = cmx")])
    def test_corrupt_checkpoint_config(self, tmp_path, trained, dataset_dir, old, new):
        blob = (trained / "checkpoint.rstr").read_bytes()
        assert blob.count(old) == 1
        bad = tmp_path / "bad.rstr"
        bad.write_bytes(blob.replace(old, new))
        assert main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir)]) == 2


class TestGradcheckCmd:
    def test_ops_scope_passes(self, capsys):
        assert main(["gradcheck", "--scope", "ops"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "matmul" in out

    def test_model_scope_passes(self, capsys):
        assert main(["gradcheck", "--scope", "model"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_adjoint_bug_gives_nonzero_exit(self, monkeypatch, capsys):
        import restr.tensor as T

        def broken_sigmoid(x):
            y = 1.0 / (1.0 + np.exp(-x.data))

            return T._record("sigmoid", (x,), y,
                             lambda g: (g * y * (1.0 - y) * 1.05,))  # 5% adjoint corruption

        monkeypatch.setattr(T, "sigmoid", broken_sigmoid)
        assert main(["gradcheck", "--scope", "ops"]) == 1
        assert "FAIL" in capsys.readouterr().out


PROFILE_FLAGS = ["--patch_size", "4", "--image_h", "16", "--image_w", "16",
                 "--dim_vision", "16", "--dim_language", "16",
                 "--dim_fusion", "16", "--vision_layers", "1",
                 "--language_layers", "1", "--fusion_layers", "2",
                 "--heads", "2", "--max_tokens", "5"]


class TestProfileCmd:
    def test_orderings_in_output(self, capsys):
        assert main(["profile", *PROFILE_FLAGS]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "variant,params,macs"
        table = {row.split(",")[0]: (int(row.split(",")[1]), int(row.split(",")[2]))
                 for row in lines[1:5]}
        assert table["vme"][0] == table["ime"][0] == table["cme"][0]
        assert table["cme_shared"][0] == table["cme"][0]  # equal at 2 fusion layers
        assert table["vme"][1] > table["cme"][1] == table["ime"][1]

    def test_shared_params_halve_at_four_layers(self, capsys):
        flags = [v if v != "2" or PROFILE_FLAGS[i - 1] != "--fusion_layers" else "4"
                 for i, v in enumerate(PROFILE_FLAGS)]
        assert main(["profile", *flags]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:5]}
        assert table["cme_shared"] * 2 == table["cme"]

    def test_probe_flag_prints_attention(self, capsys):
        assert main(["profile", *PROFILE_FLAGS, "--fusion_variant", "vme",
                     "--probe-samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "layer,a_v,a_l,a_self" in out and "f1," in out


class TestAblateCmd:
    def test_variant_sweep_rows(self, tmp_path, dataset_dir):
        out = tmp_path / "ab"
        assert main(["ablate", "--what", "variant", "--data", str(dataset_dir),
                     "--out", str(out), "--total_iters", "2", *TRAIN_FLAGS]) == 0
        rows = (out / "ablate_variant.csv").read_text().strip().splitlines()
        assert rows[0] == "sweep,setting,cumulative_iou,prec@0.5"
        settings = [r.split(",")[1] for r in rows[1:]]
        assert settings == ["vme", "ime", "cme", "cme_shared"]

    def test_layers_sweep_covers_decoder_toggle(self, tmp_path, dataset_dir):
        out = tmp_path / "ab2"
        assert main(["ablate", "--what", "layers", "--data", str(dataset_dir),
                     "--out", str(out), *TRAIN_FLAGS, "--total_iters", "2",
                     "--warmup_iters", "1"]) == 0
        rows = (out / "ablate_layers.csv").read_text().strip().splitlines()
        settings = [r.split(",")[1] for r in rows[1:]]
        assert settings == ["layers=2/decoder=on", "layers=2/decoder=off",
                            "layers=4/decoder=on", "layers=4/decoder=off"]

    def test_reference_sweep_grids(self):
        from restr.cli import LAMBDA_GRID, TAU_GRID
        assert LAMBDA_GRID == (0.01, 0.05, 0.1, 0.5, 1.0)
        assert TAU_GRID == (0.5, 0.6, 0.7, 0.8, 0.9)

    def test_lambda_sweep_rows(self, tmp_path, dataset_dir):
        out = tmp_path / "ab3"
        assert main(["ablate", "--what", "lambda", "--data", str(dataset_dir),
                     "--out", str(out), *TRAIN_FLAGS, "--total_iters", "2",
                     "--warmup_iters", "1"]) == 0
        rows = (out / "ablate_lambda.csv").read_text().strip().splitlines()
        assert [r.split(",")[1] for r in rows[1:]] == \
            ["0.01", "0.05", "0.1", "0.5", "1.0"]

    def test_unknown_sweep_key(self, tmp_path, dataset_dir):
        assert main(["ablate", "--what", "bogus", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1


class TestRenderCmd:
    def test_renders_parse(self, tmp_path, trained, dataset_dir):
        out = tmp_path / "r"
        assert main(["render", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(dataset_dir), "--ids", "0,1",
                     "--out", str(out)]) == 0
        assert read_pgm(out / "0000_mask.pgm").shape == (32, 32)
        assert read_pgm(out / "0001_patch.pgm").shape == (32, 32)
        assert read_ppm(out / "0000_overlay.ppm").shape == (32, 32, 3)

    def test_unknown_id(self, tmp_path, trained, dataset_dir):
        assert main(["render", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(dataset_dir), "--ids", "99",
                     "--out", str(tmp_path / "r2")]) == 1

    def test_unknown_id_is_checked_before_any_render(self, tmp_path, trained,
                                                      dataset_dir, capsys):
        assert main(["render", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(dataset_dir), "--ids", "0,9",
                     "--out", str(tmp_path / "r3")]) == 1
        assert "sample id 9 outside dataset of 8" in capsys.readouterr().err
        assert not (tmp_path / "r3").exists()

    @pytest.mark.parametrize("misfit", ["vocab", "size"])
    def test_dataset_the_model_does_not_fit(self, tmp_path, trained, misfit_data,
                                            misfit, monkeypatch, capsys):
        data, message = misfit_data[misfit]
        monkeypatch.setattr(decoder, "encode", no_forward)
        assert main(["render", "--ckpt", str(trained / "checkpoint.rstr"),
                     "--data", str(data), "--ids", "0", "--out", str(tmp_path / "r")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
