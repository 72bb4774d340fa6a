"""Transfer demo: pretrain on one log source, fine-tune on a handful of
annotated lines from a different source with a disjoint vocabulary.

Run from the repository root after `pip install -e .`:

    python3 demos/transfer_finetune.py

The character channel carries most of the transfer: target words are unseen
(UNK at the word level), yet a few dozen annotated lines recover most of the
variable-aware accuracy.
"""

from logvar import (
    AnnotatedLog,
    Hyperparams,
    SplitSpec,
    TrainConfig,
    build_vocabs,
    decode,
    generate_synthetic,
    init_model,
    split_dataset,
    train,
    finetune,
    variable_aware_accuracy,
)

hp = Hyperparams(word_dim=50, char_emb_dim=60, char_filters=30, lstm_hidden=64)

# Source corpus: plenty of annotated data.
source_logs, _ = generate_synthetic(seed=101, n_templates=15, n_logs=1000)
src_train, src_val, _ = split_dataset(source_logs, SplitSpec(0.8, 0.1, 0.1, seed=42))
word_vocab, char_vocab = build_vocabs(src_train)
base0 = init_model(hp, word_vocab, char_vocab, mode="multiclass", seed=5)
base, _ = train(base0, src_train, src_val, TrainConfig(epochs=15, seed=5))

# Target corpus from a different generator seed: disjoint vocabulary.
target_logs, _ = generate_synthetic(seed=202, n_templates=10, n_logs=800)
tgt_train, tgt_val, tgt_test = split_dataset(
    target_logs, SplitSpec(0.8, 0.1, 0.1, seed=42))


def accuracy_on_target(model) -> float:
    tags = decode(model, [log.tokens for log in tgt_test])
    preds = [AnnotatedLog(log.tokens, tuple(t)) for log, t in zip(tgt_test, tags)]
    return variable_aware_accuracy(preds, tgt_test)


print(f"zero-shot variable-aware accuracy: {accuracy_on_target(base):.4f}")

for n in (10, 30, 50):
    tuned, _ = finetune(base, tgt_train[:n], tgt_val, TrainConfig(epochs=30, seed=5))
    print(f"fine-tuned on {n:3d} target logs: {accuracy_on_target(tuned):.4f}")
