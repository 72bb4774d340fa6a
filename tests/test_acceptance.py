"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy end-to-end
criteria (5-7) train real models and together take several minutes of
single-CPU time.
"""

import itertools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from logvar.corpus import AnnotatedLog, SplitSpec, split_dataset
from logvar.crf import nll_gradients, viterbi_decode
from logvar.embed import build_vocabs
from logvar.evaluate import evaluate, general_accuracy, variable_aware_accuracy
from logvar.parse import extract_template, reconstruct
from logvar.synth import generate_synthetic
from logvar.tagger import (
    Hyperparams,
    _padded,
    init_model,
    loss_and_gradients,
    tag_log,
    token_table,
)
from logvar.taxonomy import (
    BINARY,
    Tag,
    VariableCategory,
    check_iob,
    is_valid_transition,
    tag_vocabulary,
)
from logvar.train import TrainConfig, finetune, train


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})", file=sys.stderr)


# -- criterion 1: CRF oracle equivalence ------------------------------------


def _brute_force(E, trans, s, e):
    """log Z, the argmax path and every path's score, by enumeration."""
    T, K = E.shape
    best_path, best, scores = None, -math.inf, {}
    for path in itertools.product(range(K), repeat=T):
        sc = s[path[0]] + e[path[-1]]
        sc += sum(E[t, path[t]] for t in range(T))
        sc += sum(trans[path[t - 1], path[t]] for t in range(1, T))
        scores[path] = sc
        if sc > best:
            best_path, best = path, sc
    m = max(scores.values())
    log_z = m + math.log(sum(math.exp(sc - m) for sc in scores.values()))
    return log_z, list(best_path), scores


def test_criterion_1_crf_oracle_equivalence():
    # log Z is nll_gradients' loss on a random gold path plus that path's score
    rng = np.random.default_rng(12345)
    gold_rng = np.random.default_rng(54321)  # apart, so the instances stay the same
    t0 = time.time()
    by_k = {}
    for trial in range(500):
        T = int(rng.integers(1, 6))
        K = int(rng.integers(2, 7))
        E = rng.standard_normal((T, K))
        trans = rng.standard_normal((K, K))
        s = rng.standard_normal(K)
        e = rng.standard_normal(K)
        log_z, argmax_path, scores = _brute_force(E, trans, s, e)
        gold = gold_rng.integers(0, K, size=T)
        loss = nll_gradients(E[None], trans, s, e, gold[None], [T])[0]
        assert abs(loss + scores[tuple(gold)] - log_z) < 1e-9, trial
        assert viterbi_decode(E[None], trans, s, e, [T]) == [argmax_path], trial
        by_k.setdefault(K, (trans, s, e, []))[3].append(E)
    # one right-padded batch per K: that K's instances under the CRF scores of
    # its first one, padded with large emissions that would steer any leak
    for K, (trans, s, e, group) in sorted(by_k.items()):
        lengths = np.array([len(E) for E in group])
        batch = 50.0 * gold_rng.standard_normal((len(group), lengths.max(), K))
        gold = gold_rng.integers(0, K, size=batch.shape[:2])
        want_loss, want_paths = 0.0, []
        for b, E in enumerate(group):
            batch[b, : len(E)] = E
            log_z, argmax_path, scores = _brute_force(E, trans, s, e)
            want_loss += log_z - scores[tuple(gold[b, : len(E)])]
            want_paths.append(argmax_path)
        assert len(set(lengths)) > 1, K
        assert abs(nll_gradients(batch, trans, s, e, gold, lengths)[0] - want_loss) < 1e-9, K
        assert viterbi_decode(batch, trans, s, e, lengths) == want_paths, K
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("1", f"500/500 instances, one padded batch per K, {elapsed:.1f}s")


# -- criterion 2: gradient correctness ---------------------------------------


def test_criterion_2_gradient_finite_differences():
    t0 = time.time()
    # exactly 6 words over exactly 8 characters
    words = ["ab", "cd", "a1", "b2", "c3", "d4"]
    assert len({c for w in words for c in w}) == 8
    rng = np.random.default_rng(777)
    binary_tags = tag_vocabulary(BINARY)

    def random_log():
        n = int(rng.integers(2, 5))
        toks = tuple(words[i] for i in rng.integers(0, len(words), size=n))
        while True:
            tags = tuple(binary_tags[i] for i in rng.integers(0, 3, size=n))
            try:
                check_iob(list(tags))
                return AnnotatedLog(toks, tags)
            except Exception:
                continue

    base = [random_log() for _ in range(40)]
    wv, cv = build_vocabs(base)
    assert len(wv) == 6 + 2 and len(cv) == 8 + 2
    hp = Hyperparams(word_dim=4, char_emb_dim=3, char_filters=3, char_kernel=3,
                     lstm_hidden=3, dropout=0.2, max_word_len=4)
    model = init_model(hp, wv, cv, seed=9, mode=BINARY, dtype=np.float64)
    h = 1e-4
    max_rel = 0.0
    for b in range(10):
        logs = base[b * 3 : b * 3 + 3]
        table, ids, lengths = token_table(model, [l.tokens for l in logs])
        starts = np.cumsum(lengths) - lengths
        gold = np.array([model.tag_index(t) for l in logs for t in l.tags])
        batch = (table, _padded(ids, starts, lengths), lengths, _padded(gold, starts, lengths))
        _, grads = loss_and_gradients(model, *batch, dropout_seed=b)
        rows, values = grads["word_emb"]
        grads["word_emb"] = np.zeros_like(model.params["word_emb"])
        grads["word_emb"][rows] = values
        for name, arr in list(model.params.items()):
            gflat = grads[name].ravel()
            for i in range(arr.size):
                losses = []
                for d in (h, -h):  # replaced, not written: the arrays are read-only
                    model.params[name] = arr.copy()
                    model.params[name].ravel()[i] += d
                    losses.append(loss_and_gradients(model, *batch, dropout_seed=b)[0])
                model.params[name] = arr
                fd = (losses[0] - losses[1]) / (2 * h)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
                max_rel = max(max_rel, rel)
    elapsed = time.time() - t0
    assert max_rel < 1e-3
    assert elapsed < 60.0
    report("2", f"max relative error {max_rel:.2e} over 10 batches, {elapsed:.1f}s")


# -- criterion 3: IOB structural property ------------------------------------


def test_criterion_3_decoded_sequences_always_iob_valid():
    logs, _ = generate_synthetic(seed=31, n_templates=10, n_logs=100)
    hp = Hyperparams(word_dim=6, char_emb_dim=5, char_filters=4, char_kernel=3,
                     lstm_hidden=4, max_word_len=10)
    wv, cv = build_vocabs(logs)
    calls = 0
    for seed in range(10):
        model = init_model(hp, wv, cv, seed=seed)
        for log in logs:
            tagged = tag_log(model, log.text)
            prev = None
            for t in tagged.tags:
                assert is_valid_transition(prev, t), (seed, log.text)
                prev = t
            calls += 1
    assert calls == 1000
    report("3", "1000/1000 decoded sequences IOB-valid")


# -- criterion 4: metric fixtures ---------------------------------------------


def _mklog(text, tags):
    return AnnotatedLog(tuple(text.split()), tuple(Tag.parse(t) for t in tags.split()))


def test_criterion_4_metric_fixtures_and_inequality():
    golds = [
        _mklog("a 1 b", "O B-OID O"),
        _mklog("c 2 d", "O B-OID O"),
        _mklog("e 3 f", "O B-OID O"),
        _mklog("g h", "O O"),
    ]
    preds = [
        _mklog("a 1 b", "O B-OID O"),
        _mklog("c 2 d", "O B-LOI O"),
        _mklog("e 3 f", "O O O"),
        _mklog("g h", "O O"),
    ]
    assert general_accuracy(preds, golds) == 0.75
    assert variable_aware_accuracy(preds, golds) == 0.5

    span_golds = [_mklog("a 1", "O B-OID"), _mklog("b 2", "O B-OID"),
                  _mklog("c 3", "O B-OID")]
    span_preds = [_mklog("a 1", "O B-OID"), _mklog("b 2", "O B-LOI"),
                  _mklog("c 3", "O O")]
    from logvar.evaluate import category_prf

    scores, _ = category_prf(span_preds, span_golds)
    assert scores["OID"].precision == 1.0
    assert scores["OID"].recall == pytest.approx(1 / 3)
    assert scores["OID"].f1 == pytest.approx(0.5)

    all_tags = tag_vocabulary()
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        toks = tuple(f"t{k}" for k in range(n))

        def rand_tags():
            while True:
                tags = tuple(all_tags[i] for i in rng.integers(0, 21, size=n))
                try:
                    check_iob(list(tags))
                    return tags
                except Exception:
                    continue

        p = [AnnotatedLog(toks, rand_tags())]
        g = [AnnotatedLog(toks, rand_tags())]
        assert variable_aware_accuracy(p, g) <= general_accuracy(p, g)
    report("4", "fixtures exact; inequality held on 1000 random sets")


# -- criteria 5-8: synthetic end-to-end ---------------------------------------


@pytest.fixture(scope="module")
def paper_scale_run():
    logs, gen_spec = generate_synthetic(seed=1, n_templates=20, n_logs=2000)
    train_set, val_set, test_set = split_dataset(logs, SplitSpec(0.2, 0.2, 0.6, seed=42))
    wv, cv = build_vocabs(train_set)
    model = init_model(Hyperparams(), wv, cv, seed=42)
    t0 = time.time()
    best, history = train(model, train_set, val_set, TrainConfig(epochs=30, seed=42))
    elapsed = time.time() - t0
    preds = [tag_log(best, log.text) for log in test_set]
    return best, preds, test_set, elapsed, gen_spec


def test_criterion_5_synthetic_end_to_end(paper_scale_run):
    _, preds, test_set, elapsed, _ = paper_scale_run
    rep = evaluate(preds, test_set)
    assert rep.variable_aware_accuracy >= 0.95
    assert rep.general_accuracy >= 0.97
    assert elapsed < 20 * 60
    report("5", f"VA {rep.variable_aware_accuracy:.4f}, GEN {rep.general_accuracy:.4f}, "
                f"train {elapsed:.0f}s")


def test_criterion_6_char_ablation_direction():
    hp_full = Hyperparams(word_dim=50, char_emb_dim=60, char_filters=30,
                          lstm_hidden=64, max_word_len=24)
    hp_ablated = Hyperparams(word_dim=50, char_emb_dim=60, char_filters=30,
                             lstm_hidden=64, max_word_len=24, use_char_channel=False)
    logs, _ = generate_synthetic(seed=7, n_templates=10, n_logs=600)
    train_set, val_set, test_set = split_dataset(logs, SplitSpec(0.2, 0.2, 0.6, seed=42))
    wv, cv = build_vocabs(train_set)
    full_acc, ablated_acc = [], []
    for seed in (1, 2, 3):
        for hp, bucket in ((hp_full, full_acc), (hp_ablated, ablated_acc)):
            model = init_model(hp, wv, cv, seed=seed)
            best, _ = train(model, train_set, val_set, TrainConfig(epochs=12, seed=seed))
            preds = [tag_log(best, log.text) for log in test_set]
            bucket.append(variable_aware_accuracy(preds, test_set))
    assert np.mean(full_acc) > np.mean(ablated_acc)
    report("6", f"full {np.mean(full_acc):.4f} > ablated {np.mean(ablated_acc):.4f} "
                f"(3 seeds)")


def test_criterion_7_finetuning_transfer():
    hp = Hyperparams(word_dim=50, char_emb_dim=60, char_filters=30,
                     lstm_hidden=64, max_word_len=24)
    logs_a, _ = generate_synthetic(seed=101, n_templates=15, n_logs=1000)
    logs_b, _ = generate_synthetic(seed=202, n_templates=10, n_logs=800)
    tr_a, va_a, _ = split_dataset(logs_a, SplitSpec(0.2, 0.2, 0.6, seed=42))
    tr_b, va_b, te_b = split_dataset(logs_b, SplitSpec(0.2, 0.2, 0.6, seed=42))
    wv, cv = build_vocabs(tr_a)
    model = init_model(hp, wv, cv, seed=5)
    base, _ = train(model, tr_a, va_a, TrainConfig(epochs=15, seed=5))

    def va_on_b(m):
        preds = [tag_log(m, log.text) for log in te_b]
        return variable_aware_accuracy(preds, te_b)

    zero_shot = va_on_b(base)
    accs = {}
    for n in (5, 10, 30, 50, 100):
        tuned, _ = finetune(base, tr_b[:n], va_b[:n], TrainConfig(epochs=30, seed=5))
        accs[n] = va_on_b(tuned)
    assert accs[50] - zero_shot >= 0.20
    sizes = [5, 10, 30, 50, 100]
    for a, b in zip(sizes, sizes[1:]):
        assert accs[b] >= accs[a] - 0.02, (a, b, accs)
    report("7", f"zero-shot {zero_shot:.4f}; " +
                ", ".join(f"{n}: {accs[n]:.4f}" for n in sizes))


def test_criterion_8_parse_determinism_and_reconstruction():
    logs, gen_spec = generate_synthetic(seed=88, n_templates=10, n_logs=1000)
    canonicals = set()
    ok = 0
    for log in logs:
        result = extract_template(log)
        canonicals.add(result.canonical_template)
        if reconstruct(result) == log.text:
            ok += 1
        for preserve in ({VariableCategory.OBJECT_ID}, set(VariableCategory)):
            other = extract_template(log, preserve)
            assert other.canonical_template == result.canonical_template
            assert other.template_id == result.template_id
    assert ok == 1000
    assert len(canonicals) == gen_spec.n_templates
    report("8", f"{len(canonicals)} templates, reconstruction {ok}/1000, "
                "preserve-invariant")


# -- criterion 9: optional benchmark check ------------------------------------


def test_criterion_9_optional_annotated_benchmark():
    root = os.environ.get("LOGVAR_ANNOTATED_DIR")
    if not root or not Path(root).is_dir():
        report("9", "annotated benchmark data not present; skipped by design")
        pytest.skip("authors' annotated datasets not available")
    datasets = sorted(Path(root).glob("*.tsv"))[:3]
    if len(datasets) < 3:
        report("9", "fewer than 3 annotated datasets; skipped by design")
        pytest.skip("need at least 3 annotated datasets")
    from logvar.corpus import read_annotations

    for path in datasets:
        logs = read_annotations(path)
        train_set, val_set, test_set = split_dataset(
            logs, SplitSpec(0.2, 0.2, 0.6, seed=42)
        )
        wv, cv = build_vocabs(train_set)
        model = init_model(Hyperparams(), wv, cv, seed=42)
        best, _ = train(model, train_set, val_set, TrainConfig(epochs=30, seed=42))
        preds = [tag_log(best, log.text) for log in test_set]
        rep = evaluate(preds, test_set)
        # per-dataset reference accuracies, within +-3 absolute points,
        # supplied next to each dataset as <name>.expected.json
        expected_path = path.with_suffix(".expected.json")
        if expected_path.exists():
            import json

            expected = json.loads(expected_path.read_text())
            assert abs(rep.general_accuracy - expected["general_accuracy"]) <= 0.03
            assert abs(rep.variable_aware_accuracy - expected["variable_aware_accuracy"]) <= 0.03
    report("9", f"checked {len(datasets)} annotated datasets")
