"""Result objects of a VALMOD run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

import numpy as np

from repro.core.config import ValmodConfig
from repro.core.ranking import rank_motif_pairs
from repro.core.valmap import Valmap
from repro.exceptions import EmptyResultError, InvalidParameterError
from repro.matrix_profile.profile import MatrixProfile, MotifPair

__all__ = ["LengthResult", "PruningStats", "ValmodResult"]


@dataclass(frozen=True)
class PruningStats:
    """Pruning counters for one subsequence length (the data behind Figure 2).

    A length where the run re-based its store (a full base pass, see
    :mod:`repro.core.valmod`) computed every profile exactly and certified
    none with a bound: ``num_valid=0``, ``num_non_valid = num_recomputed =
    num_profiles`` and ``min_lb_abs=inf``.  The base length itself reads
    ``num_valid = num_profiles``.

    Attributes
    ----------
    num_profiles:
        Number of partial distance profiles evaluated at this length.
    num_valid:
        Profiles whose retained minimum was provably the true minimum
        (``minDist <= maxLB``).
    num_non_valid:
        Profiles where the retained entries could not certify the minimum.
    num_recomputed:
        Non-valid profiles whose exact minimum the top-k selection needed
        (the paper's "profiles needed").  The rows a recompute sweep covers
        beyond these are counted apart, in the run's
        ``extra["total_rows_swept"]``.
    min_lb_abs:
        The paper's ``minLBAbs`` — smallest ``maxLB`` among non-valid profiles.
    """

    length: int
    num_profiles: int
    num_valid: int
    num_non_valid: int
    num_recomputed: int
    min_lb_abs: float

    @property
    def valid_fraction(self) -> float:
        """Fraction of profiles certified without any recomputation."""
        if self.num_profiles == 0:
            return 1.0
        return self.num_valid / self.num_profiles

    @property
    def recomputed_fraction(self) -> float:
        """Fraction of profiles that needed an exact recomputation."""
        if self.num_profiles == 0:
            return 0.0
        return self.num_recomputed / self.num_profiles

    def as_dict(self) -> dict:
        """Plain-dict form for reports and serialization."""
        return {
            "length": self.length,
            "num_profiles": self.num_profiles,
            "num_valid": self.num_valid,
            "num_non_valid": self.num_non_valid,
            "num_recomputed": self.num_recomputed,
            "min_lb_abs": self.min_lb_abs,
            "valid_fraction": self.valid_fraction,
            "recomputed_fraction": self.recomputed_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PruningStats":
        """Rebuild the counters from :meth:`as_dict` output (the derived
        fractions are recomputed, not trusted)."""
        return cls(
            length=int(payload["length"]),
            num_profiles=int(payload["num_profiles"]),
            num_valid=int(payload["num_valid"]),
            num_non_valid=int(payload["num_non_valid"]),
            num_recomputed=int(payload["num_recomputed"]),
            min_lb_abs=float(payload["min_lb_abs"]),
        )


@dataclass(frozen=True)
class LengthResult:
    """Top-k motif pairs and pruning statistics for one subsequence length."""

    length: int
    motifs: List[MotifPair]
    pruning: PruningStats

    @property
    def best(self) -> MotifPair:
        """The best motif pair of this length."""
        if not self.motifs:
            raise EmptyResultError(f"no motif pair was found at length {self.length}")
        return self.motifs[0]

    def as_dict(self) -> dict:
        """Plain-dict form for reports and serialization."""
        return {
            "length": self.length,
            "motifs": [pair.as_dict() for pair in self.motifs],
            "pruning": self.pruning.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "LengthResult":
        """Rebuild one per-length result from :meth:`as_dict` output."""
        return cls(
            length=int(payload["length"]),
            motifs=[
                MotifPair(
                    distance=float(pair["distance"]),
                    offset_a=int(pair["offset_a"]),
                    offset_b=int(pair["offset_b"]),
                    window=int(pair["window"]),
                )
                for pair in payload["motifs"]
            ],
            pruning=PruningStats.from_dict(payload["pruning"]),
        )


@dataclass(frozen=True)
class ValmodResult:
    """Everything a VALMOD run produces.

    Attributes
    ----------
    config:
        The configuration the run used.
    series_name:
        Name of the analysed series (for reports).
    series_length:
        Number of points of the analysed series.
    base_profile:
        The exact matrix profile at ``min_length`` (the starting point of the
        algorithm and of VALMAP).
    length_results:
        One :class:`LengthResult` per evaluated length, keyed by length.
    valmap:
        The VALMAP structure with its checkpoints.
    elapsed_seconds:
        Wall-clock duration of the run (used by the benchmark harness).
    """

    config: ValmodConfig
    series_name: str
    series_length: int
    base_profile: MatrixProfile
    length_results: Mapping[int, LengthResult]
    valmap: Valmap
    elapsed_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # access helpers
    # ------------------------------------------------------------------ #
    @property
    def lengths(self) -> List[int]:
        """Evaluated lengths, ascending."""
        return sorted(self.length_results)

    def motifs_at(self, length: int) -> List[MotifPair]:
        """The top-k motif pairs found at one specific length."""
        if length not in self.length_results:
            raise InvalidParameterError(
                f"length {length} was not evaluated; available: {self.lengths}"
            )
        return list(self.length_results[length].motifs)

    def all_motifs(self) -> List[MotifPair]:
        """Every reported motif pair, across all lengths (unsorted)."""
        pairs: List[MotifPair] = []
        for length in self.lengths:
            pairs.extend(self.length_results[length].motifs)
        return pairs

    def top_motifs(
        self,
        k: int = 10,
        *,
        distinct_events: bool = True,
        overlap_fraction: float = 0.5,
    ) -> List[MotifPair]:
        """Variable-length top-k ranking by length-normalised distance."""
        return rank_motif_pairs(
            self.all_motifs(),
            k,
            distinct_events=distinct_events,
            overlap_fraction=overlap_fraction,
        )

    def best_motif(self) -> MotifPair:
        """The single best variable-length motif pair (smallest ``d_n``)."""
        ranked = self.top_motifs(1, distinct_events=False)
        if not ranked:
            raise EmptyResultError("the run produced no motif pair at any length")
        return ranked[0]

    # ------------------------------------------------------------------ #
    # aggregate statistics
    # ------------------------------------------------------------------ #
    def pruning_summary(self) -> Dict[str, float]:
        """Aggregate pruning counters over all lengths above the base length."""
        stats = [
            result.pruning
            for length, result in self.length_results.items()
            if length > self.config.min_length
        ]
        if not stats:
            return {
                "lengths_evaluated": 0.0,
                "profiles_evaluated": 0.0,
                "valid_fraction": 1.0,
                "recomputed_fraction": 0.0,
            }
        profiles = sum(s.num_profiles for s in stats)
        valid = sum(s.num_valid for s in stats)
        recomputed = sum(s.num_recomputed for s in stats)
        return {
            "lengths_evaluated": float(len(stats)),
            "profiles_evaluated": float(profiles),
            "valid_fraction": valid / profiles if profiles else 1.0,
            "recomputed_fraction": recomputed / profiles if profiles else 0.0,
        }

    def normalized_profile_matrix(self) -> np.ndarray:
        """Convenience view of the VALMAP normalised profile (for plotting)."""
        return np.array(self.valmap.normalized_profile)

    def as_dict(self) -> dict:
        """Plain-dict form used by the report generator and serialization.

        Carries everything :meth:`from_dict` needs to rebuild the *full*
        in-process result — including the base profile, which the report
        generator ignores but the lossless persistent-cache rehydration
        depends on.
        """
        return {
            "config": self.config.as_dict(),
            "series_name": self.series_name,
            "series_length": self.series_length,
            "elapsed_seconds": self.elapsed_seconds,
            "lengths": self.lengths,
            "base_profile": self.base_profile.as_dict(),
            "length_results": {
                str(length): result.as_dict()
                for length, result in sorted(self.length_results.items())
            },
            "valmap": self.valmap.as_dict(),
            "pruning_summary": self.pruning_summary(),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ValmodResult":
        """Rebuild the full in-process result from :meth:`as_dict` output.

        The inverse the persistent result cache uses to rehydrate spilled
        VALMOD hits losslessly (valmap, checkpoints, pruning detail and the
        base profile all round-trip).  Raises ``KeyError`` / ``TypeError``
        / ``ValueError`` on malformed input — callers needing miss-style
        degradation translate those.
        """
        base = payload["base_profile"]
        return cls(
            config=ValmodConfig.from_dict(payload["config"]),
            series_name=str(payload["series_name"]),
            series_length=int(payload["series_length"]),
            base_profile=MatrixProfile(
                distances=np.asarray(base["distances"], dtype=np.float64),
                indices=np.asarray(base["indices"], dtype=np.int64),
                window=int(base["window"]),
                exclusion_radius=int(base["exclusion_radius"]),
            ),
            length_results={
                int(length): LengthResult.from_dict(result)
                for length, result in payload["length_results"].items()
            },
            valmap=Valmap.from_dict(payload["valmap"]),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            extra={
                str(key): value for key, value in payload.get("extra", {}).items()
            },
        )
