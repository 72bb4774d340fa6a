"""Regenerate benchmarks/model.bin, the tagger both parse workloads load.

Run from the repository root (about 10 s on one core):

    python3 benchmarks/make_model.py

Recipe: default ``Hyperparams``, ``init_model(seed=1)``, vocabularies and one
epoch of training (lr 1e-2, ``TrainConfig(seed=1)``) on the first 800 logs of
``generate_synthetic(seed=1, n_templates=20, ...)``, checkpoint selected on the
next 100. Prints the file's BLAKE2b digest, which ``run.py`` pins as
``MODEL_BLAKE2B``, and the model's variable-aware accuracy on held-out logs.
Float summation order follows the BLAS build, so another build may write a
different digest.
"""

from __future__ import annotations

import hashlib

import run  # pins BLAS threads and puts src/ on the path before numpy loads
from logvar import Hyperparams, build_vocabs, init_model, save_model, tag_log, train
from logvar.evaluate import variable_aware_accuracy


def main() -> None:
    logs = run.family_logs(run.MODEL_TRAIN + run.MODEL_VAL)
    train_set, val_set = logs[: run.MODEL_TRAIN], logs[run.MODEL_TRAIN:]
    wv, cv = build_vocabs(train_set)
    init = init_model(Hyperparams(), wv, cv, seed=run.INIT_SEED)
    model, history = train(init, train_set, val_set, run.TRAIN_CONFIG)
    save_model(model, run.MODEL_PATH)

    held = run.held_out(1000)
    preds = [tag_log(model, " ".join(g.tokens)) for g in held]
    digest = hashlib.blake2b(run.MODEL_PATH.read_bytes(), digest_size=32).hexdigest()
    print(f"wrote {run.MODEL_PATH}")
    print(f"validation var_acc {history[-1].val_metric:.4f}, "
          f"held-out var_acc {variable_aware_accuracy(preds, held):.4f}")
    print(f"MODEL_BLAKE2B = \"{digest}\"")


if __name__ == "__main__":
    main()
