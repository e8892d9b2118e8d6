"""Independent brute-force reference implementations used as test oracles.

These deliberately avoid the library's code paths (no shared ranking,
sorting, or accumulation logic) so agreement is evidence, not tautology.
"""

import json

import numpy as np


def oracle_average_precision(scores, labels):
    """O(n^2) AP: a positive's rank is the number of items beating it (higher
    score, or equal score with an earlier index)."""
    n = len(scores)
    positives = [i for i in range(n) if labels[i] == 1]
    if not positives:
        return 0.0
    total = 0.0
    for i in positives:
        rank = 0
        hits_at_or_above = 0
        for j in range(n):
            if scores[j] > scores[i] or (scores[j] == scores[i] and j <= i):
                rank += 1
                if labels[j] == 1:
                    hits_at_or_above += 1
        total += hits_at_or_above / rank
    return total / len(positives)


def oracle_keywords(transcript, k):
    """Selection by repeated extraction of the (max count, lexicographically
    smallest) eligible word."""
    counts = {}
    for t in transcript:
        if t.pos in ("NOUN", "PRON", "ADJ"):
            counts[t.text] = counts.get(t.text, 0) + 1
    out = []
    while counts and len(out) < k:
        best = None
        for w, c in counts.items():
            if best is None or c > counts[best] or (c == counts[best] and w < best):
                best = w
        out.append(best)
        del counts[best]
    return out


def oracle_window_spans(n, window, stride):
    """Window enumeration: full windows at stride multiples; one trailing
    partial window of at least window/2 shots when a tail is uncovered."""
    spans = []
    start = 0
    while start + window <= n:
        spans.append((start, start + window))
        start += stride
    covered = spans[-1][1] if spans else 0
    if covered < n and 2 * (n - start) >= window:
        spans.append((start, n))
    return spans


def oracle_boundary_samples(features, flags):
    """The sample starting at shot i, for every i with four shots from it:
    its row copies the values of shots i, i+1, i+2, i+3 one at a time, and
    its label is the flag of the gap between shots i+1 and i+2."""
    n, d = len(features), len(features[0])
    rows, labels = [], []
    for i in range(n - 3):
        row = np.empty(4 * d, dtype=np.float32)
        for k in range(4):
            for j in range(d):
                row[k * d + j] = features[i + k][j]
        rows.append(row)
        labels.append(flags[i + 1])
    return np.array(rows, dtype=np.float32).reshape(n - 3, 4 * d), np.array(labels, dtype=np.int64)


def oracle_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Out-of-place Adam with bias correction over lists of arrays (float32
    parameters, float64 moments). Returns (new params, new m, new v)."""
    new_params, new_m, new_v = [], [], []
    for p, g, m_i, v_i in zip(params, grads, m, v):
        g = np.asarray(g, dtype=np.float64)
        m2 = beta1 * m_i + (1.0 - beta1) * g
        v2 = beta2 * v_i + (1.0 - beta2) * g * g
        mhat = m2 / (1.0 - beta1 ** step)
        vhat = v2 / (1.0 - beta2 ** step)
        upd = p.astype(np.float64) - lr * mhat / (np.sqrt(vhat) + eps)
        new_params.append(upd.astype(np.float32))
        new_m.append(m2)
        new_v.append(v2)
    return new_params, new_m, new_v


def oracle_sgd_step(params, grads, lr):
    """Out-of-place SGD over lists of arrays: float32(p - lr*g)."""
    return [(p.astype(np.float64) - lr * np.asarray(g, dtype=np.float64)).astype(np.float32)
            for p, g in zip(params, grads)]


def _json(v):
    """JSON text with no whitespace: strings through the json module, each
    float as the shortest decimal that parses back to its 32-bit value."""
    if isinstance(v, (str, bool)):
        return json.dumps(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return str(np.float32(v))
    if isinstance(v, list):
        return "[" + ",".join(_json(x) for x in v) + "]"
    return "{" + ",".join(json.dumps(k) + ":" + _json(x) for k, x in v.items()) + "}"


def _floats(array):
    return [float(x) for x in array]


def _lines(objects):
    return "".join(_json(obj) + "\n" for obj in objects)


def oracle_dataset_text(dataset):
    """The record-stream file text of a valid dataset, built from its fields
    with the json module and ``str(np.float32)`` alone: a header object, then
    one object per record, with no whitespace, keys in format order, and each
    float as its shortest 32-bit decimal."""
    objects = [{"format_version": 1, "taxonomy": list(dataset.taxonomy.names),
                "d_v": dataset.d_v, "d_a": dataset.d_a, "d_l": dataset.d_l}]
    for r in dataset.records:
        shots = []
        for s in r.shots:
            shot = {"frames": [_floats(row) for row in s.frames]}
            if s.pixel_stats is not None:
                shot["pixel_stats"] = [{"mean_luma": luma, "warm_frac": warm, "cold_frac": cold}
                                       for luma, warm, cold in map(_floats, s.pixel_stats)]
            shots.append(shot)
        obj = {"id": r.id, "split": r.split, "genres": sorted(r.genres), "shots": shots,
               "audio_embedding": _floats(r.audio_embedding),
               "transcript": [[t.text, t.pos] for t in r.transcript]}
        if r.boundary_flags is not None:
            obj["boundary_flags"] = list(r.boundary_flags)
        objects.append(obj)
    return _lines(objects)


def oracle_embeddings_text(table):
    """An embedding file: a header object, then one ``token``/``vector``
    object per token in sorted order."""
    return _lines([{"format_version": 1, "d_l": table.dim}]
                  + [{"token": t, "vector": _floats(table.vectors[t])} for t in sorted(table.vectors)])


def oracle_predictions_text(predictions):
    """A prediction file: a header object, then one ``id``/``scores`` object
    per record in prediction order."""
    return _lines([{"format_version": 1, "taxonomy": list(predictions.genres)}]
                  + [{"id": rid, "scores": _floats(row)}
                     for rid, row in zip(predictions.ids, predictions.scores)])


def oracle_truth_text(truth):
    """A planted-truth file: one object holding the three weight matrices row
    by row, the vocabularies by sorted genre, and the filler tokens."""
    return _lines([{"w_visual": [_floats(row) for row in truth.w_visual],
                    "w_audio": [_floats(row) for row in truth.w_audio],
                    "w_language": [_floats(row) for row in truth.w_language],
                    "genre_vocab": {g: list(v) for g, v in sorted(truth.genre_vocab.items())},
                    "filler_tokens": list(truth.filler_tokens)}])
