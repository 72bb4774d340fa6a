"""The benchmark's layer trace still hooks the tagger's internals.

``benchmarks/layertrace.py`` replaces functions by name and reads some of
their arguments: ``_forward``'s model is its second argument, and
``_char_forward`` gets (N, L) char-id rows first. Its LSTM probe names a
span ``tagger.lstm_f`` or ``tagger.lstm_b`` by ``_lstm_forward``'s second
argument; one call now runs both directions, so every LSTM forward span
takes one of those names and ``lstm_f + lstm_b`` is the LSTM forward time.
This test runs one decode and one training step under the trace and checks
the spans that depend on those rules.
"""

import importlib.util
from pathlib import Path

import numpy as np

from logvar.embed import build_vocabs
from logvar.synth import generate_synthetic
from logvar.tagger import Hyperparams, _padded, decode, init_model, loss_and_gradients, token_table

LAYERTRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_records_every_layer_span():
    logs, _ = generate_synthetic(seed=6, n_templates=5, n_logs=50)
    wv, cv = build_vocabs(logs)
    hp = Hyperparams(word_dim=4, char_emb_dim=3, char_filters=3, char_kernel=3,
                     lstm_hidden=3, max_word_len=8)
    model = init_model(hp, wv, cv, seed=0)
    batch = logs[:3]
    table, ids, lengths = token_table(model, [log.tokens for log in batch])
    starts = np.cumsum(lengths) - lengths
    gold = np.array([model.tag_index(t) for log in batch for t in log.tags])

    tracer = load_layertrace().Tracer()
    with tracer.hooked():
        decode(model, [log.tokens for log in logs[3:8]])
        loss_and_gradients(model, table, _padded(ids, starts, lengths), lengths,
                           _padded(gold, starts, lengths), dropout_seed=1)
    names = {span[0] for span in tracer.spans}
    assert {"tagger.forward", "tagger.char_cnn", "tagger.lstm_bwd",
            "tagger.backward_net"} <= names
    assert tracer.unmeasured == set()
    # one LSTM forward span, whatever its name, under each forward pass
    lstm = {"tagger.lstm", "tagger.lstm_f", "tagger.lstm_b"}
    forwards = [i for i, span in enumerate(tracer.spans) if span[0] == "tagger.forward"]
    assert len(forwards) == 2  # the decode batch and the training step
    for i in forwards:
        assert sum(span[0] in lstm and span[3] == i for span in tracer.spans) == 1
    assert sum(span[0] in lstm for span in tracer.spans) == len(forwards)
