"""Percentile-intersection corpus filtration plus the random baseline.

The selection rule: per scorer, drop the bottom `q` fraction of pairs; keep
only the pairs surviving every scorer's cut (the intersection of the top
1 - q sets). Pairs that failed any scorer are dropped before percentiles are
taken, so the thresholds are computed over the common successfully-scored
population.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .errors import ConfigurationError, DomainError, IntegrityError, ParseError
from .records import (
    JSON_INTEGERS,
    JSON_NUMBERS,
    JSON_OBJECTS,
    JSON_STRINGS,
    json_field,
    json_fields,
    json_items,
    json_value,
)
from .scorers import ScoreTable


@dataclass(frozen=True)
class FilterManifest:
    """Reproducible record of which pair ids survive filtration and why.

    Serialized as canonical JSON (sorted keys, sorted kept_ids) so the
    manifest's content hash is stable across runs and platforms.
    """

    corpus_name: str
    scorer_names: tuple[str, ...]
    q: float
    per_scorer_thresholds: Mapping[str, float]
    kept_ids: tuple[str, ...]
    n_pairs: int
    selection_ratio: float
    created_with: Mapping[str, Mapping[str, str]]

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"drop fraction q={self.q} outside (0, 1)")
        if self.n_pairs <= 0:
            raise DomainError("manifest population must be positive")
        if len(set(self.scorer_names)) != len(self.scorer_names):
            raise IntegrityError(f"manifest scorer names repeat: {list(self.scorer_names)}")
        if list(self.kept_ids) != sorted(self.kept_ids):
            raise IntegrityError("manifest kept_ids must be sorted")
        ratio = len(self.kept_ids) / self.n_pairs
        if abs(ratio - self.selection_ratio) > 1e-12:
            raise IntegrityError("selection_ratio inconsistent with kept_ids / n_pairs")
        if self.scorer_names:
            # Exact set-algebra bounds for a k-scorer intersection with
            # ceiling keep-counts: each scorer drops floor(q*n) pairs, so at
            # least n - k*floor(q*n) survive; no more than one scorer's keep
            # count ever survives. (The idealized 1-k*q <= ratio <= 1-q holds
            # up to this rounding.)
            k = len(self.scorer_names)
            keep_count = math.ceil((1.0 - self.q) * self.n_pairs)
            lower = self.n_pairs - k * (self.n_pairs - keep_count)
            if not max(lower, 0) <= len(self.kept_ids) <= keep_count:
                raise IntegrityError(
                    f"kept {len(self.kept_ids)} of {self.n_pairs} violates the "
                    f"intersection bounds [{max(lower, 0)}, {keep_count}] for "
                    f"k={k}, q={self.q}"
                )

    def kept_id_set(self) -> set[str]:
        return set(self.kept_ids)

    def to_canonical_json(self) -> str:
        obj = {
            "corpus_name": self.corpus_name,
            "scorer_names": list(self.scorer_names),
            "q": self.q,
            "per_scorer_thresholds": {k: v for k, v in sorted(self.per_scorer_thresholds.items())},
            "kept_ids": list(self.kept_ids),
            "n_pairs": self.n_pairs,
            "selection_ratio": self.selection_ratio,
            "created_with": {k: dict(v) for k, v in sorted(self.created_with.items())},
            # Constant keys, written so that content hashes stay stable.
            "seedless": True,
            "seed": None,
        }
        return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_canonical_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "FilterManifest":
        """Read a saved manifest. A file that is not UTF-8 JSON holding a
        manifest object, or a field of the wrong JSON type, is a `ParseError`
        naming `path`; the manifest's own checks keep their `DomainError` and
        `IntegrityError`."""
        p = Path(path)
        try:
            obj = json.loads(p.read_text(encoding="utf-8"))
            thresholds = json_field(obj, "per_scorer_thresholds", JSON_OBJECTS)
            created_with = json_value(obj.get("created_with", {}), "created_with", JSON_OBJECTS)
            for descriptor in json_fields(created_with, list(created_with), JSON_OBJECTS):
                json_fields(descriptor, list(descriptor), JSON_STRINGS)
            return cls(
                corpus_name=json_field(obj, "corpus_name", JSON_STRINGS),
                scorer_names=tuple(json_items(obj["scorer_names"], "scorer_names", JSON_STRINGS)),
                q=float(json_field(obj, "q", JSON_NUMBERS)),
                per_scorer_thresholds={k: float(json_field(thresholds, k, JSON_NUMBERS))
                                       for k in thresholds},
                kept_ids=tuple(json_items(obj["kept_ids"], "kept_ids", JSON_STRINGS)),
                n_pairs=json_field(obj, "n_pairs", JSON_INTEGERS),
                selection_ratio=float(json_field(obj, "selection_ratio", JSON_NUMBERS)),
                created_with=created_with,
            )
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid manifest JSON: {exc.msg}", path=str(p)) from exc
        except KeyError as exc:
            raise ParseError(f"manifest missing field {exc}", path=str(p)) from exc
        except (AttributeError, TypeError, ValueError) as exc:  # UnicodeDecodeError too
            raise ParseError(f"malformed manifest: {exc}", path=str(p)) from exc


def percentile_keep_set(scores: Mapping[str, float], q: float) -> set[str]:
    """Ids of the ceil((1-q) * n) highest-scored entries.

    Ties at the cutoff are broken deterministically by ascending id: among
    equal scores, smaller ids are dropped first. A score that is not finite is
    a `DomainError` naming its id, raised before any ranking. The cut is
    linear (`_keep_rows`): only the ids tied at the cut value are sorted.
    """
    ids = list(scores)
    values = np.fromiter(scores.values(), dtype=np.float64, count=len(ids))
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite))
        raise DomainError(f"score for pair {ids[row]!r} is not finite: {float(values[row])}")
    keep, _ = _keep_rows(values, ids, q)
    return {ids[row] for row in np.flatnonzero(keep).tolist()}


def _keep_rows(values: np.ndarray, ids: Sequence[str], q: float) -> tuple[np.ndarray, float]:
    """A mask of the ceil((1-q) * n) highest-ranked rows of `values`, and the
    value of the lowest-ranked of them. Rows rank by value, then by id in
    code-point order; -0.0 ties 0.0.

    The cut is linear: `np.partition` finds the value at the cut, every row
    above it is kept, and only the rows tied with it are sorted, by id, the
    smaller ids dropped first. No value may be NaN.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"drop fraction q={q} outside (0, 1)")
    n = values.size
    if not n:
        raise DomainError("cannot take percentiles of an empty score map")
    keep_count = math.ceil((1.0 - q) * n)
    cut = np.partition(values, n - keep_count)[n - keep_count]
    keep = values > cut
    # The cut value holds the cut's own place in sorted order, so its tie run
    # has the `short` rows the keep count still needs, one at least. Python's
    # `sorted`, not a numpy string array, which would drop trailing NULs.
    short = keep_count - int(np.count_nonzero(keep))
    tied = sorted(np.flatnonzero(values == cut).tolist(), key=ids.__getitem__)
    keep[tied[-short:]] = True
    return keep, float(values[tied[-short]])


def intersect_filter(table: ScoreTable, q: float,
                     scorers: Sequence[str] | None = None) -> FilterManifest:
    """Keep the intersection of every scorer's top (1-q) percentile set.

    Pairs with a failure sentinel in any requested scorer column are dropped
    before percentiles are computed; each scorer's threshold is the score of
    its lowest-ranked kept pair, so a tie of -0.0 and 0.0 at the cut records
    the same zero under every hash seed. A scorer named twice is a
    `ConfigurationError`, raised before any column is read. Each cut is
    linear (`_keep_rows`); only its tied ids, and the kept ids at the end,
    are sorted.
    """
    names = list(scorers) if scorers is not None else table.scorers
    if len(names) < 2:
        raise DomainError("intersection filtering needs at least two scorers")
    if len(set(names)) != len(names):
        raise ConfigurationError(f"scorers repeat: {names}")
    table.ensure_aligned()
    ids, values = table.aligned(names)
    scored = ~np.isnan(values)
    for name, column in zip(names, scored):
        if not column.any():
            raise IntegrityError(f"scorer column {name!r} has no successful scores")
    population = np.flatnonzero(scored.all(axis=0))
    if not population.size:
        raise DomainError("no pair was successfully scored by every scorer")
    ids = [ids[row] for row in population.tolist()]
    kept = np.ones(len(ids), dtype=bool)
    thresholds: dict[str, float] = {}
    for name, column in zip(names, values[:, population]):
        keep, thresholds[name] = _keep_rows(column, ids, q)
        kept &= keep
    if not kept.any():
        raise DomainError(
            f"q={q} leaves an empty intersection over {len(ids)} pairs"
        )
    kept_ids = tuple(sorted([ids[row] for row in np.flatnonzero(kept).tolist()]))
    n = len(ids)
    return FilterManifest(
        corpus_name=table.corpus_name,
        scorer_names=tuple(names),
        q=q,
        per_scorer_thresholds=thresholds,
        kept_ids=kept_ids,
        n_pairs=n,
        selection_ratio=len(kept_ids) / n,
        created_with=table.backend_descriptors(),
    )


def random_selection(corpus: Corpus, size: int, seed: int) -> set[str]:
    """Uniform without-replacement sample of pair ids.

    Implemented by ranking ids under a seeded hash, which makes the draw
    independent of RNG library versions: identical (corpus, size, seed)
    always reproduces the identical set, on any platform.
    """
    n = len(corpus)
    if size <= 0 or size > n:
        raise DomainError(f"sample size {size} outside [1, {n}]")
    seed_bytes = str(int(seed)).encode("ascii")

    def rank(pair_id: str) -> tuple[bytes, str]:
        digest = hashlib.blake2b(pair_id.encode("utf-8"), digest_size=16,
                                 key=seed_bytes[:64]).digest()
        return digest, pair_id

    ordered = sorted(corpus.ids(), key=rank)
    return set(ordered[:size])


def apply_manifest(corpus: Corpus, manifest: FilterManifest) -> Corpus:
    """The corpus's own pairs that the manifest keeps, in corpus order
    (`Corpus.subset`, which rejects an id the corpus lacks).

    Re-applying the same manifest to its own output is the identity.
    """
    if corpus.name != manifest.corpus_name:
        raise IntegrityError(
            f"manifest is for corpus {manifest.corpus_name!r}, got {corpus.name!r}"
        )
    if not manifest.kept_ids:
        raise DomainError("manifest keeps no pairs; refusing to emit an empty corpus")
    return corpus.subset(manifest.kept_ids)
