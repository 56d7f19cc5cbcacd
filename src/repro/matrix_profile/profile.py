"""Matrix-profile result objects.

:class:`MatrixProfile` is the fixed-length analogue of the paper's Figure 1
(left): the profile of minimum distances, the index profile of best-match
offsets, plus the operations the demo front-end offers on them — extracting
the top-k motif pairs, the top discords, and a length-normalised view that
can be compared across lengths (the building block of VALMAP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

from repro.exceptions import EmptyResultError, InvalidParameterError
from repro.matrix_profile.exclusion import apply_exclusion_zone, default_exclusion_radius
from repro.stats.distance import length_normalized

__all__ = ["MotifPair", "MatrixProfile"]


@dataclass(frozen=True, order=True)
class MotifPair:
    """A motif pair: the two closest (non-trivially matching) subsequences.

    Ordering is by ``distance`` so lists of pairs can be sorted directly.
    ``offset_a < offset_b`` by construction.
    """

    distance: float
    offset_a: int = field(compare=False)
    offset_b: int = field(compare=False)
    window: int = field(compare=False)

    def __post_init__(self) -> None:
        if self.offset_a == self.offset_b:
            raise InvalidParameterError("a motif pair must join two distinct offsets")
        if self.offset_a > self.offset_b:
            first, second = self.offset_b, self.offset_a
            object.__setattr__(self, "offset_a", first)
            object.__setattr__(self, "offset_b", second)
        if self.window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {self.window}")
        if self.distance < 0:
            raise InvalidParameterError(f"distance must be >= 0, got {self.distance}")

    @property
    def normalized_distance(self) -> float:
        """Length-normalised distance ``d / sqrt(window)`` (paper, Section 2)."""
        return float(length_normalized(self.distance, self.window))

    @property
    def offsets(self) -> tuple[int, int]:
        """The two subsequence offsets as a tuple ``(offset_a, offset_b)``."""
        return (self.offset_a, self.offset_b)

    def overlaps(self, other: "MotifPair", radius: int | None = None) -> bool:
        """True when any member of ``self`` trivially matches a member of ``other``."""
        if radius is None:
            radius = default_exclusion_radius(min(self.window, other.window))
        for mine in self.offsets:
            for theirs in other.offsets:
                if abs(mine - theirs) <= radius:
                    return True
        return False

    def as_dict(self) -> dict:
        """Plain-dict form used by reports and serialization."""
        return {
            "offset_a": self.offset_a,
            "offset_b": self.offset_b,
            "window": self.window,
            "distance": self.distance,
            "normalized_distance": self.normalized_distance,
        }


@dataclass(frozen=True)
class MatrixProfile:
    """The matrix profile of one series at one subsequence length.

    Attributes
    ----------
    distances:
        ``distances[i]`` is the z-normalised Euclidean distance between the
        subsequence at offset ``i`` and its nearest non-trivial match.
    indices:
        ``indices[i]`` is the offset of that nearest match (``-1`` when no
        valid match exists, which only happens for degenerate inputs).
    window:
        The subsequence length the profile was computed for.
    exclusion_radius:
        The trivial-match radius used during the computation.
    """

    distances: np.ndarray
    indices: np.ndarray
    window: int
    exclusion_radius: int

    def __post_init__(self) -> None:
        distances = np.asarray(self.distances, dtype=np.float64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if distances.ndim != 1 or indices.ndim != 1:
            raise InvalidParameterError("profile arrays must be one-dimensional")
        if distances.shape != indices.shape:
            raise InvalidParameterError(
                f"distances and indices must have equal length, got "
                f"{distances.shape} and {indices.shape}"
            )
        if self.window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {self.window}")
        if self.exclusion_radius < 0:
            raise InvalidParameterError(
                f"exclusion radius must be >= 0, got {self.exclusion_radius}"
            )
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return int(self.distances.size)

    def __iter__(self) -> Iterator[tuple[float, int]]:
        return iter(zip(self.distances.tolist(), self.indices.tolist()))

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @property
    def normalized_distances(self) -> np.ndarray:
        """Length-normalised profile ``MP / sqrt(window)`` (used by VALMAP)."""
        return np.asarray(length_normalized(self.distances, self.window))

    def best(self) -> MotifPair:
        """The motif pair: the global minimum of the profile."""
        finite = np.isfinite(self.distances)
        if not finite.any():
            raise EmptyResultError("the matrix profile contains no finite entries")
        offset = int(np.argmin(np.where(finite, self.distances, np.inf)))
        match = int(self.indices[offset])
        if match < 0:
            raise EmptyResultError(f"offset {offset} has no recorded match")
        return MotifPair(
            distance=float(self.distances[offset]),
            offset_a=offset,
            offset_b=match,
            window=self.window,
        )

    def motifs(self, k: int = 3, *, exclusion_radius: int | None = None) -> List[MotifPair]:
        """Top-``k`` motif pairs, excluding trivial matches of earlier pairs.

        The standard matrix-profile procedure: repeatedly take the global
        minimum and mask an exclusion zone around both of its members before
        looking for the next pair.  Fewer than ``k`` pairs may be returned on
        short series.
        """
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        radius = self.exclusion_radius if exclusion_radius is None else exclusion_radius
        working = np.array(self.distances, dtype=np.float64)
        pairs: List[MotifPair] = []
        while len(pairs) < k:
            finite = np.isfinite(working)
            if not finite.any():
                break
            offset = int(np.argmin(np.where(finite, working, np.inf)))
            if not np.isfinite(working[offset]):
                break
            match = int(self.indices[offset])
            if match < 0:
                apply_exclusion_zone(working, offset, radius)
                continue
            pairs.append(
                MotifPair(
                    distance=float(self.distances[offset]),
                    offset_a=offset,
                    offset_b=match,
                    window=self.window,
                )
            )
            apply_exclusion_zone(working, offset, radius)
            apply_exclusion_zone(working, match, radius)
        return pairs

    def discords(self, k: int = 3, *, exclusion_radius: int | None = None) -> List[int]:
        """Offsets of the top-``k`` discords (largest nearest-neighbour distance)."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        radius = self.exclusion_radius if exclusion_radius is None else exclusion_radius
        working = np.array(self.distances, dtype=np.float64)
        working[~np.isfinite(working)] = -np.inf
        discords: List[int] = []
        while len(discords) < k:
            offset = int(np.argmax(working))
            if working[offset] == -np.inf:
                break
            discords.append(offset)
            apply_exclusion_zone(working, offset, radius, value=-np.inf)
        return discords

    def as_dict(self, *, arrays: bool = False) -> dict:
        """Plain-dict form used by serialization (``arrays=True`` keeps the
        numpy arrays rather than listing them)."""
        return {
            "window": self.window,
            "exclusion_radius": self.exclusion_radius,
            "distances": self.distances if arrays else self.distances.tolist(),
            "indices": self.indices if arrays else self.indices.tolist(),
        }
