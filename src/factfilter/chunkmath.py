"""The scorers' arithmetic on whole chunks: greedy matching over blocks of
pairs, and row means bit-equal to `np.mean` of each row alone.

Everything here is numpy over arrays a chunk's backend requests returned;
the requests, the per-pair failures and the value checks are `scorers`'.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import Iterator

import numpy as np

# Most float64 elements one gather of greedy candidates holds (256 KiB), and
# a block of pairs screened together holds in its Gram and its document rows
# (128 KiB) unless one pair needs more: with larger blocks the heap gave its
# pages back and faulted them in again on every chunk of long documents.
GREEDY_BLOCK_ELEMENTS = 2 ** 15
SCREEN_ELEMENTS = 2 ** 14


def greedy_precisions(pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """The greedy precision of each `(document rows, summary rows)` pair of
    equal width (`greedy_means`): the pairs are sorted by summary and
    document length, and scored in blocks (`screen_blocks`) of one width and
    dtypes."""
    out = [0.0] * len(pairs)
    groups: dict[tuple, list[int]] = {}
    for k, (doc, summ) in enumerate(pairs):
        groups.setdefault((doc.shape[1], doc.dtype, summ.dtype), []).append(k)
    for (dim, *_), group in groups.items():
        group.sort(key=lambda k: (len(pairs[k][1]), len(pairs[k][0])))
        for block in screen_blocks([(len(pairs[k][1]), len(pairs[k][0])) for k in group], dim):
            means = greedy_means([pairs[k][0] for k in group[block]],
                                 [pairs[k][1] for k in group[block]])
            for k, mean in zip(group[block], means):
                out[k] = mean
    return out


def screen_blocks(lengths: list[tuple[int, int]], dim: int) -> Iterator[slice]:
    """Runs of consecutive pairs, given as (summary, document) row counts,
    whose Gram and document rows padded to the run's longest each hold at
    most `SCREEN_ELEMENTS` elements, or of one pair."""
    start = s_max = d_max = 0
    for k, (s, d) in enumerate(lengths):
        s_max, d_max = max(s_max, s), max(d_max, d)
        if k > start and (k + 1 - start) * d_max * max(s_max, dim) > SCREEN_ELEMENTS:
            yield slice(start, k)
            start, s_max, d_max = k, s, d
    yield slice(start, len(lengths))


def greedy_means(docs: list[np.ndarray], sums: list[np.ndarray]) -> list[float]:
    """Each pair's greedy precision: the clipped mean over its summary rows u
    of the largest difference form 1 - |v - u|^2 / 2 over its document rows
    v. The pairs share one width and dtypes, equal summary lengths adjacent.
    Their rows are stacked, and `_unit_rows` normalises each stacked row as
    it does the row alone. One batched Gram product u·v over the zero-padded
    pairs screens the candidates, the difference form decides.

    Why each row's best is bit-equal to the difference form over every row of
    its pair's document. Let n = dim and eps = `finfo(float64).eps`. A row
    that `_unit_rows` normalised has |u|^2 within (n/2 + 2) eps of 1, and a
    pair keeps the finite delta below only if all its rows have |u|^2 - 1 up
    to (3n/2 + 2) eps. For such rows the computed difference form
    f = 1 - sum((v - u)**2) / 2 and the computed Gram entry g = u·v differ
    by at most delta = 4 (n + 2) eps, whatever order the product sums in:
      * exactly, 1 - |v - u|^2 / 2 = u·v - (|u|^2 - 1 + |v|^2 - 1) / 2,
        at most (3n/2 + 2) eps from u·v;
      * rounding moves u·v by at most n eps / 2, and the difference form
        by at most (n + 5/2) eps;
    (3n + 9/2) eps in all. For one summary row, let g* be its largest Gram
    entry over its own document's rows and f* its largest difference form.
    The column that gives f* has g >= f* - delta >= f(column of g*) - delta
    >= g* - 2 delta, so the columns with g >= g* - 2 delta include it.
    Padding is never a candidate: a padded column's Gram entry is -inf
    before g* is taken, and padded rows and columns are struck from the
    candidate mask itself (a threshold of -inf lets -inf through). Each
    candidate's f is computed as the per-row form computes it (the same
    differences and squares, the same contiguous sum over `dim`), and a
    maximum is exact, so the row's maximum is the same float.

    A pair with a row whose computed |u|^2 is more than (n + 2) eps from 1
    (its norm over- or underflowed) is outside that bound: its delta is
    inf, and every row of its document is a candidate. Candidates are
    evaluated at most `GREEDY_BLOCK_ELEMENTS // dim` at a time, which bounds
    the memory even when every column ties.
    """
    d_len, s_len = [len(d) for d in docs], [len(s) for s in sums]
    doc_rows, sum_rows = _unit_rows(docs), _unit_rows(sums)
    dim = doc_rows.shape[1]
    tolerance = (dim + 2) * np.finfo(np.float64).eps
    off = np.zeros(len(docs), dtype=bool)
    for rows, lengths in ((doc_rows, d_len), (sum_rows, s_len)):
        deviation = np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0)
        if deviation.max() > tolerance:
            off |= np.maximum.reduceat(deviation, [0, *accumulate(lengths[:-1])]) > tolerance
    docs_3d, sums_3d = _padded(doc_rows, d_len), _padded(sum_rows, s_len)
    s_max, d_max = sums_3d.shape[1], docs_3d.shape[1]
    gram = sums_3d @ docs_3d.transpose(0, 2, 1)
    short_docs = [(p, d) for p, d in enumerate(d_len) if d < d_max]
    for p, d in short_docs:
        gram[p, :, d:] = -np.inf
    twice_delta = np.where(off, np.inf, 8.0 * tolerance)[:, None, None]
    candidates = gram >= gram.max(axis=2, keepdims=True) - twice_delta
    for p, d in short_docs:
        candidates[p, :, d:] = False
    for p, s in enumerate(s_len):
        if s < s_max:
            candidates[p, s:] = False
    found = np.flatnonzero(candidates)  # many times faster than a 3-D `nonzero`
    doc_rows, sum_rows = docs_3d.reshape(-1, dim), sums_3d.reshape(-1, dim)
    best = np.full(len(sum_rows), -np.inf)
    step = max(1, GREEDY_BLOCK_ELEMENTS // dim)
    for i in range(0, found.size, step):
        r, c = np.divmod(found[i:i + step], d_max)  # rows of the padded arrays
        c += r // s_max * d_max
        diff = doc_rows.take(c, axis=0)
        diff -= sum_rows.take(r, axis=0)
        diff *= diff
        np.maximum.at(best, r, 1.0 - diff.sum(axis=1) / 2.0)
    if sum(s_len) < best.size:  # drop the padded summary rows
        best = best[(np.arange(s_max) < np.array(s_len)[:, None]).reshape(-1)]
    return row_means(np.clip(best, -1.0, 1.0), s_len)


def _padded(rows: np.ndarray, lengths: list[int]) -> np.ndarray:
    """Stacked pairs' rows as one (pairs, most rows, dim) array, zero rows
    after each pair's own: a view when every pair has as many rows."""
    width = max(lengths)
    if len(rows) == width * len(lengths):
        return rows.reshape(len(lengths), width, -1)
    out = np.zeros((len(lengths) * width, rows.shape[1]), dtype=rows.dtype)
    shifts = [k * width - start for k, start in enumerate(accumulate([0, *lengths[:-1]]))]
    out[np.arange(len(rows)) + np.repeat(shifts, lengths)] = rows
    return out.reshape(len(lengths), width, -1)


def row_means(values: np.ndarray, lengths: list[int]) -> list[float]:
    """The means of the consecutive segments of `values` with these lengths,
    equal lengths adjacent: a 2-D row mean per run of equal lengths, each
    bit-equal to `np.mean` of its segment alone (`np.add.reduceat` sums in
    another order and is not)."""
    means: list[float] = []
    start = 0
    for length, run in groupby(lengths):
        count = len(list(run))
        means += values[start:start + count * length].reshape(count, length).mean(axis=1).tolist()
        start += count * length
    return means


def _unit_rows(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays' rows stacked, each over its norm."""
    rows = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)
