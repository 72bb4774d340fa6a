import copy
import dataclasses
import hashlib
import importlib
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvar.corpus import AnnotatedLog
from logvar.embed import build_vocabs
from logvar.errors import (
    ChecksumError,
    DivergenceError,
    EmptyInput,
    FormatError,
    NonFiniteScores,
    TagError,
    VersionError,
)
from logvar.evaluate import to_binary_annotations
from logvar.synth import generate_synthetic
import logvar.tagger as tagger
from logvar.tagger import Hyperparams, TaggerModel, init_model, tag_log, tag_logs
from logvar.taxonomy import BINARY, BINARY_CATEGORY, MULTICLASS, Tag, check_iob
from logvar.train import (
    BETA1,
    BETA2,
    EPS,
    Adam,
    TrainConfig,
    clip_global_norm,
    finetune,
    load_model,
    save_model,
    train,
)

# the package re-exports train(), which shadows the module attribute
train_module = importlib.import_module("logvar.train")

SMALL_HP = Hyperparams(
    word_dim=16, char_emb_dim=12, char_filters=8, char_kernel=3,
    lstm_hidden=12, dropout=0.1, max_word_len=16,
)


@pytest.fixture(scope="module")
def memorization_run():
    logs, _ = generate_synthetic(seed=8, n_templates=5, n_logs=60)
    train_set, val_set = logs[:20], logs[20:30]
    wv, cv = build_vocabs(train_set)
    model = init_model(SMALL_HP, wv, cv, seed=1)
    cfg = TrainConfig(epochs=30, batch_size=4, learning_rate=0.02, seed=7)
    best, history = train(model, train_set, val_set, cfg)
    return train_set, val_set, best, history, cfg, model


class TestTrain:
    def test_memorization_loss_below_threshold(self, memorization_run):
        _, _, _, history, _, _ = memorization_run
        assert min(h.train_loss for h in history) < 0.05

    def test_history_length(self, memorization_run):
        _, _, _, history, cfg, _ = memorization_run
        assert len(history) == cfg.epochs
        assert [h.epoch for h in history] == list(range(cfg.epochs))

    def test_best_at_least_first_epoch(self, memorization_run):
        _, val_set, best, history, cfg, _ = memorization_run
        best_metric = max(h.val_metric for h in history)
        assert best_metric >= history[0].val_metric

    def test_deterministic_same_seed(self, memorization_run):
        train_set, val_set, best, history, cfg, model = memorization_run
        best2, history2 = train(model, train_set, val_set, cfg)
        assert [h.val_metric for h in history] == [h.val_metric for h in history2]
        assert [h.train_loss for h in history] == [h.train_loss for h in history2]
        for name in best.params:
            assert (best.params[name] == best2.params[name]).all()

    def test_loss_trend_late_window(self, memorization_run):
        _, _, _, history, _, _ = memorization_run
        losses = [h.train_loss for h in history]
        # mean over any late 5-epoch window never rises above the window before it
        for i in range(5, len(losses) - 5, 5):
            assert np.mean(losses[i + 5 : i + 10]) <= np.mean(losses[i : i + 5]) + 0.05

    def test_empty_sets_rejected(self, memorization_run):
        train_set, val_set, _, _, cfg, model = memorization_run
        with pytest.raises(EmptyInput, match="training set") as caught:
            train(model, [], val_set, cfg)
        assert caught.value.which == "training"
        with pytest.raises(EmptyInput, match="validation set") as caught:
            train(model, train_set, [], cfg)
        assert caught.value.which == "validation"

    def test_history_does_not_depend_on_validation_batching(self, memorization_run, monkeypatch):
        train_set, val_set, _, _, _, model = memorization_run
        cfg = TrainConfig(epochs=4, batch_size=4, learning_rate=0.02, seed=7)
        _, batched = train(model, train_set, val_set, cfg)
        monkeypatch.setattr(tagger, "BATCH_TOKENS", 1)  # every validation log decoded alone
        _, alone = train(model, train_set, val_set, cfg)
        assert alone == batched


class TestForeignTags:
    @pytest.mark.parametrize("which", ["training", "validation"])
    @pytest.mark.parametrize("mode", [MULTICLASS, BINARY])
    def test_tag_outside_the_alphabet_names_the_set_the_tag_and_the_mode(
        self, memorization_run, mode, which
    ):
        multiclass = memorization_run[0]
        binary = [to_binary_annotations(log) for log in multiclass]
        own, foreign, tag = ((multiclass, binary, "B-VAR") if mode == MULTICLASS
                             else (binary, multiclass, r"B-\w+"))
        model = init_model(SMALL_HP, *build_vocabs(multiclass), seed=1, mode=mode)
        sets = (foreign, own) if which == "training" else (own, foreign)
        with pytest.raises(TagError, match=rf"^the {which} set holds the tag {tag}, which is "
                                           rf"not in the alphabet of a {mode} model$"):
            train(model, *sets, TrainConfig(epochs=1))


class TestTrainingOptions:
    def test_frozen_word_embeddings_stay_bitwise_the_initial_ones(
        self, memorization_run, monkeypatch
    ):
        # and no gradient of word_emb's full shape is built: the minibatch
        # gradient is a RowGrad of the rows read, which train() drops before
        # clip and Adam see the gradients
        train_set, val_set, best, _, _, model = memorization_run
        assert not np.array_equal(best.params["word_emb"], model.params["word_emb"])
        built, stepped, opts = [], [], set()
        real_loss, real_step = train_module.loss_and_gradients, Adam.step

        def loss_spy(*args):
            loss, grads = real_loss(*args)
            built.append(dict(grads))
            return loss, grads

        def step_spy(opt, params, grads):
            stepped.append(grads)
            opts.add(opt)
            return real_step(opt, params, grads)

        monkeypatch.setattr(train_module, "loss_and_gradients", loss_spy)
        monkeypatch.setattr(Adam, "step", step_spy)
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.02, seed=7,
                          freeze_word_embeddings=True)
        frozen, _ = train(model, train_set, val_set, cfg)
        for name, arr in model.params.items():
            assert np.array_equal(frozen.params[name], arr) == (name == "word_emb"), name
        assert len(stepped) == len(built) == 2 * 5
        full = model.params["word_emb"].shape
        for grads, step in zip(built, stepped):
            assert "word_emb" not in step
            rows = grads.pop("word_emb").rows
            assert len(rows) < full[0]
            assert all(g.shape != full for g in grads.values())
        [opt] = opts  # and Adam keeps no moments of word_emb
        assert set(opt.m) == set(opt.v) == set(model.params) - {"word_emb"}

    def test_general_accuracy_scores_and_selects_the_checkpoint(
        self, memorization_run, monkeypatch
    ):
        train_set, val_set, _, _, _, model = memorization_run
        scores, snapshots = [], []
        real_general, real_decode = train_module.general_accuracy, train_module.decode

        def general_spy(preds, golds):
            scores.append(real_general(preds, golds))
            return scores[-1]

        def variable_aware_spy(preds, golds):
            raise AssertionError("selection under general_accuracy read variable_aware_accuracy")

        def decode_spy(m, token_lists):
            snapshots.append({name: arr.copy() for name, arr in m.params.items()})
            return real_decode(m, token_lists)

        monkeypatch.setitem(train_module.SELECTION_METRICS, "general_accuracy", general_spy)
        monkeypatch.setitem(train_module.SELECTION_METRICS, "variable_aware_accuracy",
                            variable_aware_spy)
        monkeypatch.setattr(train_module, "decode", decode_spy)
        cfg = TrainConfig(epochs=14, batch_size=4, learning_rate=0.02, seed=7,
                          selection_metric="general_accuracy")
        best, history = train(model, train_set, val_set, cfg)
        assert [h.val_metric for h in history] == scores
        assert len(snapshots) == cfg.epochs
        epoch = scores.index(max(scores))  # the first epoch at the best score
        assert scores[epoch] > scores[-1]  # not the last epoch's model
        for name, arr in best.params.items():
            np.testing.assert_array_equal(arr, snapshots[epoch][name], err_msg=name)


class TestFinetune:
    def test_empty_target_rejected(self, memorization_run):
        _, val_set, best, _, cfg, _ = memorization_run
        with pytest.raises(EmptyInput, match="training set"):
            finetune(best, [], val_set, cfg)

    def test_runs_on_five_logs(self, memorization_run):
        _, val_set, best, _, _, _ = memorization_run
        logs, _ = generate_synthetic(seed=21, n_templates=5, n_logs=50)
        cfg = TrainConfig(epochs=2, seed=3)
        tuned, history = finetune(best, logs[:5], logs[5:10], cfg)
        assert len(history) == 2
        assert tuned.word_vocab.index == best.word_vocab.index  # vocab reused


class TestOptimizer:
    def test_adam_converges_on_quadratic(self):
        params = {"x": np.array([5.0, -3.0])}
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            opt.step(params, {"x": 2 * params["x"]})
        assert np.abs(params["x"]).max() < 1e-3

    def test_adam_matches_a_float64_reference_of_its_formula(self):
        # the folded bias corrections round differently from the textbook
        # order, so float32 parameters match a float64 run of the formula
        # to a few float32 ulps of the largest parameter, not bitwise
        rng = np.random.default_rng(0)
        shapes = {"w": (40, 30), "b": (30,)}
        params = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        ref = {k: v.astype(np.float64) for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(x) for k, x in ref.items()}
        opt = Adam(params, lr=0.01)
        b1, b2, eps = BETA1, BETA2, EPS
        for t in range(1, 51):
            grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
            opt.step(params, grads)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for k, g in grads.items():
                g = g.astype(np.float64)
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                ref[k] -= 0.01 * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
        assert all(params[k].dtype == np.float32 for k in shapes)
        err = max(np.abs(params[k] - ref[k]).max() for k in shapes)
        assert err <= 1e-6 * max(np.abs(ref[k]).max() for k in shapes)

    def test_adam_on_row_gradients_is_bitwise_the_dense_step(self):
        # row 0 plays PAD (zero and never read), row 1 is read at the first
        # step only, rows 40 to 49 are never read, and the rest at random
        rng = np.random.default_rng(3)
        init = {"emb": rng.standard_normal((50, 6)).astype(np.float32),
                "w": rng.standard_normal((6, 4)).astype(np.float32)}
        init["emb"][0] = 0.0
        rows_p, dense_p = copy.deepcopy(init), copy.deepcopy(init)
        rows_opt, dense_opt = Adam(rows_p, lr=0.01), Adam(dense_p, lr=0.01)
        row_1 = []
        for t in range(30):
            rows = np.array([1]) if t == 0 else np.flatnonzero(rng.random(40) < 0.2)
            rows = rows[rows > 1] if t else rows
            values = rng.standard_normal((len(rows), 6)).astype(np.float32)
            g_w = rng.standard_normal((6, 4)).astype(np.float32)
            dense = np.zeros_like(init["emb"])
            dense[rows] = values
            rows_opt.step(rows_p, {"emb": tagger.RowGrad(rows, values), "w": g_w.copy()})
            dense_opt.step(dense_p, {"emb": dense, "w": g_w})
            for name in init:
                for got, want in ((rows_p, dense_p), (rows_opt.m, dense_opt.m),
                                  (rows_opt.v, dense_opt.v)):
                    assert got[name].tobytes() == want[name].tobytes(), (t, name)
            row_1.append(rows_p["emb"][1].copy())
        assert all((a != b).all() for a, b in zip(row_1, row_1[1:]))  # idle, still moving
        assert not rows_p["emb"][0].any()
        np.testing.assert_array_equal(rows_p["emb"][40:], init["emb"][40:])  # m stays zero

    @pytest.mark.parametrize("max_norm", [0.0, 1.0])
    def test_clip_global_norm_on_row_gradients(self, max_norm):
        # the norm sums the rows' squares in another order than a dense
        # array's: equal within float32 rounding, and the rows scale alike
        rng = np.random.default_rng(4)
        rows = np.array([2, 5, 6, 30])
        values = rng.standard_normal((4, 8)).astype(np.float32)
        w = rng.standard_normal(10).astype(np.float32)
        dense = np.zeros((40, 8), np.float32)
        dense[rows] = values
        norm = np.sqrt((values.astype(np.float64) ** 2).sum() + (w.astype(np.float64) ** 2).sum())
        grads = {"emb": tagger.RowGrad(rows, values.copy()), "w": w.copy()}
        want = {"emb": dense, "w": w.copy()}
        total = clip_global_norm(grads, max_norm)
        assert total == pytest.approx(clip_global_norm(want, max_norm), rel=1e-6)
        assert total == pytest.approx(norm, rel=1e-6)
        np.testing.assert_array_equal(grads["emb"].rows, rows)
        np.testing.assert_allclose(grads["emb"].values, want["emb"][rows], rtol=1e-6)
        np.testing.assert_allclose(grads["w"], want["w"], rtol=1e-6)
        if max_norm:
            assert not np.allclose(grads["w"], w)

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        total = clip_global_norm(grads, 1.0)
        assert total == pytest.approx(5.0)
        clipped = np.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
        assert clipped == pytest.approx(1.0)

    def test_float32_norm_of_a_minibatch_gradient_matches_float64(self):
        logs, _ = generate_synthetic(seed=8, n_templates=5, n_logs=50)
        logs = logs[:8]
        wv, cv = build_vocabs(logs)
        model = init_model(SMALL_HP, wv, cv, seed=1)
        table, ids, lengths = tagger.token_table(model, [log.tokens for log in logs])
        starts = np.cumsum(lengths) - lengths
        gold = np.array([model.tag_index(t) for log in logs for t in log.tags])
        _, grads = tagger.loss_and_gradients(
            model, table, tagger._padded(ids, starts, lengths), lengths,
            tagger._padded(gold, starts, lengths), dropout_seed=7,
        )
        rows, values = grads["word_emb"]
        dense = dict(grads, word_emb=np.zeros_like(model.params["word_emb"]))
        dense["word_emb"][rows] = values
        assert all(g.dtype == np.float32 for g in dense.values())
        want = np.sqrt(sum((g.astype(np.float64) ** 2).sum() for g in dense.values()))
        assert clip_global_norm(grads, 0.0) == pytest.approx(want, rel=1e-6)

    def test_huge_finite_float32_gradient_is_clipped(self):
        # 1e20 squared overflows float32, but the norm is finite: it is
        # taken again in float64, returned and clipped, not read as divergence
        grads = {"a": np.array([1e20, -3.0], dtype=np.float32), "b": np.ones(4, np.float32)}
        total = clip_global_norm(grads, 5.0)
        assert total == pytest.approx(1e20, rel=1e-6)
        clipped = np.sqrt(sum((g.astype(np.float64) ** 2).sum() for g in grads.values()))
        assert clipped == pytest.approx(5.0, rel=1e-6)


class TestConfigurationTypes:
    """Each field of Hyperparams and TrainConfig takes the type of its default."""

    @pytest.mark.parametrize("cls, field, value", [
        (Hyperparams, "use_char_channel", "false"),
        (Hyperparams, "word_dim", 2.5),
        (Hyperparams, "lstm_hidden", True),
        (Hyperparams, "dropout", "0.2"),
        (TrainConfig, "epochs", 2.5),
        (TrainConfig, "batch_size", True),
        (TrainConfig, "seed", 1.5),
        (TrainConfig, "freeze_word_embeddings", "no"),
    ])
    def test_value_of_another_type_is_rejected(self, cls, field, value):
        with pytest.raises(ValueError, match=f"^{field} = "):
            cls(**{field: value})

    def test_int_is_a_float(self):
        assert Hyperparams(dropout=0).dropout == 0
        assert TrainConfig(learning_rate=1).learning_rate == 1


class TestSerialization:
    def test_round_trip_bit_exact(self, memorization_run, tmp_path):
        _, _, best, _, _, _ = memorization_run
        path = tmp_path / "model.valb"
        save_model(best, path)
        loaded = load_model(path)
        assert set(loaded.params) == set(best.params)
        for name in best.params:
            assert loaded.params[name].dtype == np.float32
            assert (loaded.params[name] == best.params[name]).all()
        assert loaded.hp == best.hp
        assert loaded.mode == best.mode
        assert loaded.tags == best.tags
        assert loaded.word_vocab == best.word_vocab
        assert loaded.char_vocab == best.char_vocab

    def test_save_creates_missing_directories_and_leaves_no_temp_file(
            self, memorization_run, tmp_path):
        _, _, best, _, _, _ = memorization_run
        path = tmp_path / "new" / "sub" / "model.valb"
        save_model(best, path)
        assert [p.name for p in path.parent.iterdir()] == ["model.valb"]
        save_model(best, tmp_path / "flat.valb")
        assert path.read_bytes() == (tmp_path / "flat.valb").read_bytes()

    def test_round_trip_same_tags(self, memorization_run, tmp_path):
        train_set, _, best, _, _, _ = memorization_run
        path = tmp_path / "model.valb"
        save_model(best, path)
        loaded = load_model(path)
        for log in train_set[:5]:
            assert tag_log(loaded, log.text) == tag_log(best, log.text)

    def test_truncated_file_checksum_error(self, memorization_run, tmp_path):
        _, _, best, _, _, _ = memorization_run
        path = tmp_path / "model.valb"
        save_model(best, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_corrupted_byte_checksum_error(self, memorization_run, tmp_path):
        _, _, best, _, _, _ = memorization_run
        path = tmp_path / "model.valb"
        save_model(best, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.valb"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(FormatError):
            load_model(path)

    def test_unknown_version(self, memorization_run, tmp_path):
        import hashlib
        import struct

        _, _, best, _, _, _ = memorization_run
        path = tmp_path / "model.valb"
        save_model(best, path)
        blob = bytearray(path.read_bytes())[:-8]
        blob[4:8] = struct.pack("<I", 99)
        blob += hashlib.blake2b(bytes(blob), digest_size=8).digest()
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_model(path)

    @pytest.mark.parametrize("key", ["n_tags", "hyperparams", "word_vocab", "format"])
    def test_missing_metadata_key(self, memorization_run, tmp_path, monkeypatch, key):
        _, _, best, _, _, _ = memorization_run
        full = train_module._metadata
        monkeypatch.setattr(train_module, "_metadata",
                            lambda m: {k: v for k, v in full(m).items() if k != key})
        path = tmp_path / "model.valb"
        save_model(best, path)
        with pytest.raises(FormatError, match=key):
            load_model(path)

    @pytest.mark.parametrize("name, shape", [
        ("char_W", (3, 6, 7)),  # char_filters says 8 and char_emb_dim 12
        ("lstm_f_Wh", (11, 48)),
        ("proj_W", (24, 20)),
    ])
    def test_tensor_shape_contradicting_hyperparams(self, memorization_run, tmp_path, name, shape):
        _, _, best, _, _, _ = memorization_run
        bad = copy.deepcopy(best)
        bad.params[name] = np.zeros(shape, dtype=np.float32)
        path = tmp_path / "model.valb"
        save_model(bad, path)
        with pytest.raises(FormatError, match=name):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("lstm_hidden", True),
                                              ("use_char_channel", "false")])
    def test_hyperparameter_of_another_type_names_the_field(
        self, memorization_run, tmp_path, monkeypatch, field, value
    ):
        _, _, best, _, _, _ = memorization_run
        full = train_module._metadata

        def edited(m):
            meta = full(m)
            meta["hyperparams"] = {**meta["hyperparams"], field: value}
            return meta

        monkeypatch.setattr(train_module, "_metadata", edited)
        path = tmp_path / "model.valb"
        save_model(best, path)
        with pytest.raises(FormatError, match=re.escape(f"{field} = {value!r} is not a ")):
            load_model(path)

    def test_edited_hyperparameter_rejected(self, memorization_run, tmp_path, monkeypatch):
        _, _, best, _, _, _ = memorization_run
        full = train_module._metadata

        def edited(m):
            meta = full(m)
            meta["hyperparams"] = {**meta["hyperparams"], "lstm_hidden": 13}
            return meta

        monkeypatch.setattr(train_module, "_metadata", edited)
        path = tmp_path / "model.valb"
        save_model(best, path)
        with pytest.raises(FormatError, match="has shape"):
            load_model(path)

    def test_model_whose_max_word_len_exceeds_memory_loads_and_tags(
        self, memorization_run, tmp_path
    ):
        _, _, best, _, _, _ = memorization_run
        wide = TaggerModel(dataclasses.replace(best.hp, max_word_len=10**6), best.mode,
                           best.word_vocab, best.char_vocab, best.params)
        save_model(wide, tmp_path / "wide.valb")
        loaded = load_model(tmp_path / "wide.valb")
        assert loaded.hp.max_word_len == 10**6
        raw = "Starting executor ID 5 on host meso-07"
        assert tag_log(loaded, raw) == tag_log(best, raw)

    def test_binary_mode_metadata(self, tmp_path):
        logs, _ = generate_synthetic(seed=13, n_templates=5, n_logs=50)
        binary = [
            AnnotatedLog(
                l.tokens,
                tuple(t if t.is_outside else Tag(t.prefix, BINARY_CATEGORY) for t in l.tags),
            )
            for l in logs
        ]
        wv, cv = build_vocabs(binary[:20])
        model = init_model(SMALL_HP, wv, cv, seed=2, mode=BINARY)
        path = tmp_path / "binary.valb"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.mode == BINARY
        assert loaded.n_tags == 3


class TestReadOnlyModels:
    """A model's tensors become read-only when it is first decoded; decoding
    keeps state for it across calls, until a tensor is replaced."""

    @pytest.fixture
    def loaded(self, memorization_run, tmp_path):
        _, _, best, _, _, _ = memorization_run
        path = tmp_path / "model.valb"
        save_model(best, path)
        return path, load_model(path)

    def test_in_place_write_to_a_loaded_tensor_raises(self, loaded):
        _, model = loaded
        tag_log(model, "Starting executor ID 5 on host meso-07")
        for name, arr in model.params.items():
            assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            model.params["proj_b"][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.params["lstm_f_Wx"] += 1.0

    def test_finetune_of_a_loaded_model_trains_a_copy(self, loaded):
        path, model = loaded
        logs, _ = generate_synthetic(seed=21, n_templates=5, n_logs=50)
        tuned, history = finetune(model, logs[:5], logs[5:10], TrainConfig(epochs=2, seed=3))
        assert len(history) == 2
        assert any((tuned.params[n] != model.params[n]).any() for n in model.params)
        # validation decoded every checkpoint, the tuned one among them
        assert not any(arr.flags.writeable for arr in tuned.params.values())
        for name, arr in load_model(path).params.items():
            assert arr.tobytes() == model.params[name].tobytes(), name

    def test_deepcopy_after_decode(self, loaded, memorization_run):
        _, model = loaded
        lines = [" ".join(log.tokens) for log in memorization_run[1]]
        tags = [tag_log(model, raw) for raw in lines]
        twin = copy.deepcopy(model)
        assert [tag_log(twin, raw) for raw in lines] == tags
        assert [tag_log(model, raw) for raw in lines] == tags

    def test_save_of_a_loaded_model_round_trips_byte_identically(self, loaded, tmp_path):
        path, model = loaded
        tag_log(model, "Starting executor ID 5 on host meso-07")
        save_model(model, tmp_path / "again.valb")
        assert (tmp_path / "again.valb").read_bytes() == path.read_bytes()

    def test_in_place_change_to_a_writeable_model_reaches_the_next_decode(
        self, memorization_run
    ):
        # a decode makes the tensors read-only, so a change is a new array
        # in params; proj_b is read after the LSTM, and the input weights'
        # projections are what the token store holds
        _, val_set, best, _, _, _ = memorization_run
        msgs = [log.tokens for log in val_set]
        for name in ("proj_b", "lstm_f_Wx"):
            model = copy.deepcopy(best)
            first = tagger.decode(model, msgs)
            with pytest.raises(ValueError, match="read-only"):
                model.params[name] *= -1.0
            if name == "proj_b":
                changed = model.params[name].copy()
                changed[model.tag_index(Tag.parse("B-OTP"))] += 50.0
            else:
                changed = model.params[name] * -1.0
            model.params[name] = changed
            second = tagger.decode(model, msgs)
            assert second != first, name
            assert second == tagger.decode(copy.deepcopy(model), msgs), name


class TestSharedParameters:
    """No library code writes into a parameter array: Adam puts each update
    in a new array, so ``train`` shares arrays with ``init`` and its
    checkpoints instead of copying them, and a trained model keeps its view."""

    @pytest.fixture
    def small_run(self, memorization_run):
        train_set, val_set, _, _, _, init = memorization_run
        return train_set[:8], val_set[:4], copy.deepcopy(init)

    def test_a_read_only_model_trains_and_decodes(self, small_run):
        train_set, val_set, model = small_run
        for arr in model.params.values():
            arr.flags.writeable = False
        params = dict(model.params)
        Adam(params, 0.01).step(params, {k: np.ones_like(v) for k, v in params.items()})
        assert all((params[k] < model.params[k]).all() for k in params)
        best, history = train(model, train_set, val_set, TrainConfig(epochs=2, seed=3))
        assert len(history) == 2
        assert len(tagger.decode(best, [log.tokens for log in val_set])) == len(val_set)

    def test_train_leaves_init_unchanged(self, small_run):
        train_set, val_set, init = small_run
        before = {k: (v, v.tobytes()) for k, v in init.params.items()}
        best, _ = train(init, train_set, val_set, TrainConfig(epochs=2, seed=3))
        for name, (arr, data) in before.items():
            assert init.params[name] is arr and arr.tobytes() == data, name
            assert best.params[name] is not arr, name

    def test_frozen_word_embeddings_are_the_init_array(self, small_run):
        train_set, val_set, init = small_run
        cfg = TrainConfig(epochs=2, seed=3, freeze_word_embeddings=True)
        best, _ = train(init, train_set, val_set, cfg)
        assert best.params["word_emb"] is init.params["word_emb"]

    def test_a_trained_model_keeps_its_token_store(self, small_run, monkeypatch):
        train_set, val_set, init = small_run
        best, _ = train(init, train_set, val_set, TrainConfig(epochs=2, seed=3))
        msgs = [log.tokens for log in val_set]
        first = tagger.decode(best, msgs)
        calls = []
        for name in ("encode_log", "_char_forward"):
            real = getattr(tagger, name)
            monkeypatch.setattr(tagger, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        assert tagger.decode(best, msgs) == first
        assert calls == []


class TestNonFiniteModels:
    def test_non_finite_tensor_value_is_a_format_error(self, memorization_run, tmp_path):
        _, _, best, _, _, _ = memorization_run
        for value in (np.nan, np.inf, -np.inf):
            bad = copy.deepcopy(best)
            bad.params["lstm_f_Wh"][0, 0] = value
            path = tmp_path / "model.valb"
            save_model(bad, path)
            with pytest.raises(FormatError, match="lstm_f_Wh"):
                load_model(path)

    def test_finite_weights_that_overflow_float32_raise(self, memorization_run, tmp_path):
        train_set, _, best, _, _, _ = memorization_run
        bad = copy.deepcopy(best)
        bad.params["proj_W"].ravel()[:50] = 3e38
        path = tmp_path / "model.valb"
        save_model(bad, path)
        loaded = load_model(path)  # every stored value is finite
        with pytest.raises(NonFiniteScores), np.errstate(over="ignore", invalid="ignore"):
            tag_log(loaded, train_set[0].text)

    def test_overflow_raises_without_a_numpy_warning(self, memorization_run, tmp_path):
        train_set, _, best, _, _, _ = memorization_run
        bad = copy.deepcopy(best)
        bad.params["proj_W"].ravel()[:50] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            with pytest.raises(NonFiniteScores):
                tag_log(bad, train_set[0].text)
        # the CLI in a fresh interpreter, where numpy's warnings reach stderr
        model_path, raw = tmp_path / "model.valb", tmp_path / "raw.txt"
        save_model(bad, model_path)
        raw.write_text(train_set[0].text + "\n")
        src = str(Path(tagger.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "logvar.cli", "parse", "--model", str(model_path),
             "--input", str(raw), "--output", str(tmp_path / "out.jsonl")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "NonFiniteScores"


class TestDivergence:
    def test_emissions_outside_the_crf_domain_raise(self, memorization_run):
        # B-X scored 1000 nats down and I-X 1000 up: after a first step that
        # leaves B-X no probability a double can hold, the second step's best
        # tag is out of reach, the CRF loss is NaN and training stops there
        train_set, val_set, _, _, cfg, model = memorization_run
        bad = copy.deepcopy(model)
        bad.params["proj_b"][bad.tags.index(Tag("B", "OID"))] = -1000.0
        bad.params["proj_b"][bad.tags.index(Tag("I", "OID"))] = 1000.0
        with pytest.raises(DivergenceError, match="non-finite loss at epoch 0, batch 0"):
            train(bad, train_set, val_set, cfg)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_gradient_raises_before_the_step(self, memorization_run, monkeypatch,
                                                        value):
        train_set, val_set, _, _, cfg, model = memorization_run
        real = train_module.loss_and_gradients
        models, before = [], {}

        def second_batch_goes_bad(model, *args):
            loss, grads = real(model, *args)
            models.append(model)
            if len(models) == 2:
                before.update(copy.deepcopy(model.params))
                grads["proj_b"][0] = value
            return loss, grads

        monkeypatch.setattr(train_module, "loss_and_gradients", second_batch_goes_bad)
        with pytest.raises(DivergenceError, match="non-finite gradient at epoch 0, batch 1"):
            train(model, train_set, val_set, cfg)
        assert len(models) == 2 and set(models[1].params) == set(before)
        for name, arr in before.items():
            np.testing.assert_array_equal(models[1].params[name], arr)

    def test_clip_leaves_a_non_finite_gradient_alone(self):
        grads = {"a": np.array([np.inf, 1.0]), "b": np.array([4.0])}
        assert clip_global_norm(grads, 1.0) == np.inf
        np.testing.assert_array_equal(grads["a"], [np.inf, 1.0])


class TestFrozenEntries:
    @pytest.mark.parametrize("name", ["trans", "start"])
    def test_unfrozen_forbidden_entry_is_a_format_error(self, memorization_run, tmp_path, name):
        _, _, best, _, _, _ = memorization_run
        bad = copy.deepcopy(best)
        frozen = best.frozen_trans if name == "trans" else best.frozen_start
        bad.params[name][tuple(np.argwhere(frozen)[0])] = 5.0
        path = tmp_path / "model.valb"
        save_model(bad, path)
        with pytest.raises(FormatError, match=f"tensor {name} "):
            load_model(path)

    def test_pinned_and_trained_models_load(self, memorization_run, tmp_path):
        _, _, best, _, _, model = memorization_run
        load_model(Path(__file__).resolve().parents[1] / "benchmarks" / "model.bin")
        logs, _ = generate_synthetic(seed=21, n_templates=5, n_logs=50)
        tuned, _ = finetune(best, logs[:5], logs[5:10], TrainConfig(epochs=2, seed=3))
        for fresh in (model, best, tuned):
            path = tmp_path / "model.valb"
            save_model(fresh, path)
            load_model(path)


FUZZ_LINES = ["Starting executor ID 5 on host meso-07", "a", "x <*> 7 y"]


@pytest.fixture(scope="module")
def model_body(tmp_path_factory):
    """A tiny saved model's bytes before the checksum, and a folder to write into."""
    logs, _ = generate_synthetic(seed=8, n_templates=5, n_logs=50)
    wv, cv = build_vocabs(logs[:20])
    hp = Hyperparams(word_dim=4, char_emb_dim=3, char_filters=3, char_kernel=3,
                     lstm_hidden=3, max_word_len=6)
    folder = tmp_path_factory.mktemp("fuzz")
    save_model(init_model(hp, wv, cv, seed=0), folder / "model.valb")
    return (folder / "model.valb").read_bytes()[:-8], folder


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_model_bytes_load_and_tag_or_raise(model_body, data):
    body, folder = model_body
    blob = bytearray(body)
    edits = st.tuples(st.integers(0, len(body) - 1), st.integers(0, 255))
    for pos, value in data.draw(st.lists(edits, min_size=1, max_size=4)):
        blob[pos] = value
    del blob[len(blob) - data.draw(st.integers(0, 8)):]
    blob += hashlib.blake2b(bytes(blob), digest_size=8).digest()
    path = folder / "mutated.valb"
    path.write_bytes(bytes(blob))
    try:
        model = load_model(path)
    except FormatError:
        return
    try:
        tagged = tag_logs(model, FUZZ_LINES)
    except NonFiniteScores:
        return
    for annotated in tagged:
        check_iob(list(annotated.tags))


def reference_load(path):
    """``load_model`` as it read before its parser took one cursor, kept as an
    oracle: the magic, checksum and version checks, the body parser that moves
    its read position by hand, and the checks on what it parsed."""
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != b"VALB":
        raise FormatError("bad magic")
    if hashlib.blake2b(blob[:-8], digest_size=8).digest() != blob[-8:]:
        raise ChecksumError("checksum mismatch")
    body = memoryview(blob)[:-8]
    off = 4
    (version,) = struct.unpack_from("<I", body, off)
    off += 4
    if version != 1:
        raise VersionError("unknown format version")
    params = {}
    try:
        (meta_len,) = struct.unpack_from("<I", body, off)
        off += 4
        meta = json.loads(bytes(body[off : off + meta_len]).decode("utf-8"))
        off += meta_len
        (n_tensors,) = struct.unpack_from("<I", body, off)
        off += 4
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<H", body, off)
            off += 2
            name = bytes(body[off : off + name_len]).decode("utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<B", body, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", body, off)
            off += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(body, dtype="<f4", count=count, offset=off).reshape(shape)
            off += 4 * count
            if name in params:
                raise FormatError("tensor stored twice")
            params[name] = arr.copy()
    except (struct.error, ValueError) as exc:
        raise FormatError("malformed model body") from exc
    if off != len(body):
        raise FormatError("trailing bytes")
    model = TaggerModel(*train_module._read_metadata(meta, path), params)
    expected = tagger.param_shapes(model.hp, len(model.word_vocab), len(model.char_vocab),
                                   model.n_tags)
    if {name: arr.shape for name, arr in params.items()} != expected:
        raise FormatError("tensor names or shapes")
    if not all(np.isfinite(arr).all() for arr in params.values()):
        raise FormatError("a value that is not finite")
    for name, frozen in (("trans", model.frozen_trans), ("start", model.frozen_start)):
        if (params[name][frozen] != tagger.FROZEN_SCORE).any():
            raise FormatError("an IOB-forbidden entry")
    return model


def load_outcome(load, path):
    """The class of the ``FormatError`` that ``load(path)`` raises, or what
    the model it returns holds: metadata, then each tensor's name, shape and bytes."""
    try:
        model = load(path)
    except FormatError as exc:
        return type(exc)
    return (model.hp, model.mode, model.word_vocab, model.char_vocab,
            [(k, v.shape, v.tobytes()) for k, v in sorted(model.params.items())])


def header_offsets(body):
    """Where each u32, u16 and u8 field of a model body starts: version,
    metadata length, tensor count, and each tensor's name length, rank and dims."""
    offsets, off = [4, 8], 12 + struct.unpack_from("<I", body, 8)[0]
    offsets.append(off)
    off += 4
    for _ in range(struct.unpack_from("<I", body, off - 4)[0]):
        name_len = struct.unpack_from("<H", body, off)[0]
        offsets += [off, off + 2 + name_len]
        off += 3 + name_len
        shape = struct.unpack_from(f"<{body[off - 1]}I", body, off)
        offsets += range(off, off + 4 * len(shape), 4)
        off += 4 * (len(shape) + int(np.prod(shape)))
    assert off == len(body)
    return offsets


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_model_gives_the_reference_readers_outcome_on_mutated_files(model_body, data):
    body, folder = model_body
    blob = bytearray(body)
    pos = st.sampled_from(header_offsets(body)).flatmap(lambda o: st.integers(o, o + 3))
    edits = st.tuples(pos | st.integers(0, len(body) - 1), st.integers(0, 255))
    for pos, value in data.draw(st.lists(edits, max_size=4)):
        blob[min(pos, len(blob) - 1)] = value
    del blob[len(blob) - data.draw(st.integers(0, 8)):]
    blob += hashlib.blake2b(bytes(blob), digest_size=8).digest()
    path = folder / "mutated.valb"
    path.write_bytes(bytes(blob))
    assert load_outcome(load_model, path) == load_outcome(reference_load, path)


def layout_blob(meta, tensors):
    """A model file built field by field from the layout the train module's
    docstring states, for ``meta`` (JSON bytes) and (name, array) pairs."""
    fields = [b"VALB", struct.pack("<I", 1), struct.pack("<I", len(meta)), meta,
              struct.pack("<I", len(tensors))]
    for name, arr in tensors:
        raw = name.encode("utf-8")
        fields += [struct.pack("<H", len(raw)), raw, struct.pack("<B", arr.ndim)]
        fields += [struct.pack("<I", dim) for dim in arr.shape]
        fields += [struct.pack("<f", x) for x in np.asarray(arr, dtype=np.float64).ravel()]
    body = b"".join(fields)
    return body + hashlib.blake2b(body, digest_size=8).digest()


def test_save_model_writes_the_documented_layout(memorization_run, tmp_path):
    _, _, best, _, _, init = memorization_run
    logs, _ = generate_synthetic(seed=13, n_templates=5, n_logs=50)
    wv, cv = build_vocabs([to_binary_annotations(log) for log in logs[:20]])
    binary = init_model(SMALL_HP, wv, cv, seed=2, mode=BINARY)
    float64 = dataclasses.replace(init, params={
        **{k: v.astype(np.float64) for k, v in init.params.items()},
        "přázdný": np.zeros((0, 3))})
    for model in (best, binary, float64):
        meta = json.dumps(train_module._metadata(model), ensure_ascii=False).encode("utf-8")
        path = tmp_path / "model.valb"
        save_model(model, path)
        assert path.read_bytes() == layout_blob(meta, sorted(model.params.items()))


def test_save_model_writes_a_scalar_with_rank_0(memorization_run, tmp_path, monkeypatch):
    # a 0-d tensor's header holds rank 0 and no dims, then its one value
    init = memorization_run[-1]
    model = dataclasses.replace(init, params={**init.params, "scale": np.array(0.5)})
    meta = json.dumps(train_module._metadata(model), ensure_ascii=False).encode("utf-8")
    path = tmp_path / "model.valb"
    save_model(model, path)
    blob = path.read_bytes()
    assert blob == layout_blob(meta, sorted(model.params.items()))
    rank = blob.index(struct.pack("<H", 5) + b"scale") + 7
    assert blob[rank] == 0 and struct.unpack_from("<f", blob, rank + 1) == (0.5,)
    shapes = train_module.param_shapes
    monkeypatch.setattr(train_module, "param_shapes",
                        lambda *args: {**shapes(*args), "scale": ()})
    scale = load_model(path).params["scale"]
    assert scale.shape == () and scale == 0.5
