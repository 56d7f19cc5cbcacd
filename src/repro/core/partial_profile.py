"""Partial distance profiles — the memory VALMOD carries across lengths.

While STOMP computes the base-length (``l_min``) matrix profile, VALMOD keeps,
for every query offset ``i``, the ``p`` distance-profile entries with the
smallest lower bound — equivalently the ``p`` neighbours with the *largest*
base-length correlation, since the lower bound is a decreasing function of
that correlation and its ranking never changes with the target length (see
:mod:`repro.core.lower_bound`).

For each retained entry the store keeps the neighbour offset, the
**mean-centered** dot product ``QT`` (updated incrementally as the length
grows) and the base correlation.  All entries of all profiles live in flat
``(n_profiles, p)`` arrays so the per-length update of the whole store is a
handful of vectorised numpy operations instead of a Python loop over
profiles.

Retention rule
--------------
Row ``i`` keeps the **first** ``p`` of its candidates (every offset outside
the trivial-match zone) in the order *base correlation descending, offset
ascending*, and stores them in that order.  Ties are therefore decided by
offset, never by a sort implementation: a run of constant neighbours (all
pinned at correlation ``1.0``) longer than ``p`` keeps its ``p`` lowest
offsets.  The candidates not kept set the row's ceiling, their largest
correlation.  :meth:`PartialProfileStore.ingest_centered_profile`
implements the rule in numpy for one row of dot products (``argpartition``
finds the threshold, ties at it go to the lowest offsets), which the
oracle and numpy kernels hand over.  The native base pass applies it in C
right after each row is swept (``repro_stomp_retain_segment`` in
``_stomp_kernel.c``), with this store's own statistics, zone and
compensation decision (:meth:`PartialProfileStore.retention_inputs`), and
hands over compact blocks of retained rows, which the store checks and
copies.  The C pass seeds each row with the previous row's neighbours and
then skips every candidate it can prove lies below the row's
``(p+1)``-th largest correlation: such a candidate is neither kept nor
the ceiling, so skipping it changes nothing (the proof, margin included,
is in ``_stomp_kernel.c``).  Both paths compute the correlations with the
same operations, so the oracle, numpy and native kernels build the same
store bit for bit.

Kernels
-------
A store follows the sweep ``kernel=`` it is given (resolved once by
:func:`~repro.matrix_profile.kernels.resolve_kernel`): on ``"native"``,
:meth:`~PartialProfileStore.advance_to` and the per-row minimum of
:meth:`~PartialProfileStore.evaluate` run in C (``repro_store_advance`` and
``repro_store_minima``), element for element the numpy arithmetic; every
other kernel takes the numpy code, which is also the fallback when no
compiled kernel is available.  ``maxLB`` and the valid/non-valid split stay
in numpy on both paths.

Centering
---------
Z-normalised distances are invariant under a global shift of the series, but
dot products are not: on a series sitting at offset ``1e6`` a raw product
carries rounding error at magnitude ``~eps·|T|²`` that survives the
``qt → correlation`` cancellation at full size, which used to leave VALMOD's
reported distances with ~1e-3 relative error while every other path in the
library was already centered.  The store therefore runs end-to-end on
:attr:`~repro.stats.sliding.SlidingStats.centered_values`: ingested products
must be taken on the centered series (exactly what the centered STOMP sweep
carries), :meth:`advance_to` appends centered tail products, and
:meth:`evaluate` converts with the centered window means.  The identity
``QT_c − L·μ̃_i·μ̃_j = QT − L·μ_i·μ_j`` (``μ̃ = μ − center``) makes this an
exact reformulation — only the rounding error changes.

Fragments and merging
---------------------
:meth:`PartialProfileStore.split` carves out a *fragment* covering a
contiguous row range; fragments ingest their rows independently (each engine
block builds its own) and :meth:`PartialProfileStore.merge` copies them back.
Because every row's retained entries are a function of that row's base
profile alone, merging disjoint fragments reproduces the serially-ingested
store bit for bit.  :meth:`export_state` yields a compact picklable form so
process-pool workers ship only their rows, not the series.

Terminology (Figure 2 of the paper):

* a partial profile is **valid** at length ``L`` when its smallest true
  distance among the retained entries (``minDist``) does not exceed the
  largest lower bound of the entries it did *not* retain (``maxLB``): the
  retained minimum is then provably the minimum of the whole profile;
* otherwise it is **non-valid** and ``maxLB`` acts as a lower bound on the
  true minimum, which VALMOD uses to decide whether the profile ever needs to
  be recomputed exactly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.lower_bound import lower_bound
from repro.exceptions import InvalidParameterError
from repro.matrix_profile import _native
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import resolve_kernel
from repro.stats.distance import centered_dot_products, compensation_needed
from repro.stats.sliding import SlidingStats
from repro.stats.znorm import STD_EPSILON

__all__ = ["PartialProfileStore", "LengthEvaluation"]

#: Array fields of one fragment's exported state, in a fixed order so the
#: export/merge round-trip cannot silently drop a field.
_STATE_FIELDS = (
    "neighbors",
    "dot_products",
    "base_correlations",
    "pruned_correlation_ceiling",
    "complete",
    "unbounded",
    "populated",
)


@dataclass(frozen=True)
class LengthEvaluation:
    """The outcome of evaluating every partial profile at one length.

    Attributes
    ----------
    length:
        The subsequence length the evaluation refers to.
    min_distances:
        Per-offset minimum true distance among the retained entries
        (``inf`` when no retained entry is applicable at this length).
    min_indices:
        Offset of the neighbour achieving that minimum (``-1`` when none).
    max_lower_bounds:
        Per-offset ``maxLB`` threshold (``inf`` when the profile is complete,
        ``0`` when pruning had to be disabled for that offset).
    valid:
        Boolean mask: ``minDist <= maxLB`` (the retained minimum is exact).
    """

    length: int
    min_distances: np.ndarray
    min_indices: np.ndarray
    max_lower_bounds: np.ndarray
    valid: np.ndarray

    @property
    def num_valid(self) -> int:
        """Number of valid (fully pruned) partial profiles."""
        return int(np.count_nonzero(self.valid))

    @property
    def num_non_valid(self) -> int:
        """Number of non-valid partial profiles (candidates for recomputation)."""
        return int(self.valid.size - self.num_valid)

    @property
    def min_lb_abs(self) -> float:
        """The paper's ``minLBAbs``: smallest ``maxLB`` among non-valid profiles."""
        non_valid = ~self.valid
        if not non_valid.any():
            return float("inf")
        return float(self.max_lower_bounds[non_valid].min())


class PartialProfileStore:
    """Retained distance-profile entries for every query offset.

    Parameters
    ----------
    series_values:
        The raw data series (validated float64 array).  Stored centered —
        see the module docstring.
    stats:
        Precomputed sliding statistics of the series.
    base_length:
        The base subsequence length ``l_min``.
    capacity:
        The paper's ``p``: entries retained per profile.
    exclusion_factor:
        Denominator of the trivial-match radius.
    lower_bound_kind:
        ``"tight"`` or ``"paper"`` (see :mod:`repro.core.lower_bound`).
    kernel:
        The sweep kernel the caller runs (``None`` honours
        ``REPRO_KERNEL``); ``"native"`` runs :meth:`advance_to` and
        :meth:`evaluate` in C, anything else in numpy — see the module
        docstring.
    """

    def __init__(
        self,
        series_values: np.ndarray,
        stats: SlidingStats,
        base_length: int,
        capacity: int,
        *,
        exclusion_factor: int = 4,
        lower_bound_kind: str = "tight",
        kernel: str | None = None,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        values = np.asarray(series_values, dtype=np.float64)
        base_means, base_stds = stats.centered_mean_std(int(base_length))
        self._init_core(
            centered_values=stats.centered_values,
            base_means=base_means,
            base_stds=base_stds,
            base_length=int(base_length),
            capacity=int(capacity),
            exclusion_factor=int(exclusion_factor),
            lower_bound_kind=lower_bound_kind,
            row_range=(0, values.size - int(base_length) + 1),
        )
        self._stats: SlidingStats | None = stats
        self._kernel = "native" if resolve_kernel(kernel) == "native" else "numpy"

    @classmethod
    def fragment(
        cls,
        centered_values: np.ndarray,
        base_means: np.ndarray,
        base_stds: np.ndarray,
        base_length: int,
        capacity: int,
        *,
        exclusion_factor: int = 4,
        lower_bound_kind: str = "tight",
        row_range: tuple[int, int],
    ) -> "PartialProfileStore":
        """A store fragment built from precomputed centered inputs.

        This is the worker-side constructor: an engine block already holds
        the centered series and the centered base means/stds (they travel
        with the block payload), so the fragment needs no
        :class:`~repro.stats.sliding.SlidingStats`.  Fragments can ingest
        and :meth:`export_state` but not :meth:`evaluate` — merge them into
        a full store first.  Which kernel fills a fragment is the sweep's
        business (:func:`~repro.matrix_profile.kernels.run_sweep`); its own
        :meth:`advance_to` takes the numpy path.
        """
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        store = cls.__new__(cls)
        store._init_core(
            # Contiguous float64: the native kernel reads these through raw pointers.
            centered_values=np.ascontiguousarray(centered_values, dtype=np.float64),
            base_means=np.ascontiguousarray(base_means, dtype=np.float64),
            base_stds=np.ascontiguousarray(base_stds, dtype=np.float64),
            base_length=int(base_length),
            capacity=int(capacity),
            exclusion_factor=int(exclusion_factor),
            lower_bound_kind=lower_bound_kind,
            row_range=row_range,
        )
        store._stats = None
        store._kernel = "numpy"
        return store

    def _init_core(
        self,
        *,
        centered_values: np.ndarray,
        base_means: np.ndarray,
        base_stds: np.ndarray,
        base_length: int,
        capacity: int,
        exclusion_factor: int,
        lower_bound_kind: str,
        row_range: tuple[int, int],
    ) -> None:
        self._values = centered_values
        self._base_length = base_length
        self._capacity = capacity
        self._exclusion_factor = exclusion_factor
        self._lower_bound_kind = lower_bound_kind

        n = self._values.size
        self._num_profiles = n - self._base_length + 1
        row_start, row_stop = int(row_range[0]), int(row_range[1])
        if not 0 <= row_start <= row_stop <= self._num_profiles:
            raise InvalidParameterError(
                f"row range [{row_start}, {row_stop}) is out of bounds for "
                f"{self._num_profiles} profiles"
            )
        self._row_start = row_start
        self._row_stop = row_stop
        if base_means.shape != (self._num_profiles,):
            raise InvalidParameterError(
                f"expected {self._num_profiles} base means, got {base_means.shape}"
            )
        self._base_means = base_means
        self._base_stds = base_stds
        self._base_constant = base_stds <= 0.0
        #: one cancellation-risk decision for every base-profile ingest
        self._base_compensated = compensation_needed(base_means, base_means, base_stds)
        self._base_radius = default_exclusion_radius(base_length, exclusion_factor)

        shape = (row_stop - row_start, self._capacity)
        self._neighbors = np.full(shape, -1, dtype=np.int64)
        self._dot_products = np.zeros(shape, dtype=np.float64)
        self._base_correlations = np.full(shape, -np.inf, dtype=np.float64)
        #: largest base correlation among the entries *not* retained for each
        #: profile: every pruned candidate correlates at most this much with
        #: the query, so its lower bound at any longer length is at least
        #: ``LB(threshold)`` — the profile's ``maxLB``.
        self._pruned_correlation_ceiling = np.full(shape[0], -np.inf)
        #: True when every candidate neighbour was retained (no pruning risk)
        self._complete = np.zeros(shape[0], dtype=bool)
        #: True when pruning must be disabled for this offset (degenerate cases)
        self._unbounded = np.zeros(shape[0], dtype=bool)
        self._populated = np.zeros(shape[0], dtype=bool)
        #: the length the stored dot products currently refer to
        self._current_length = self._base_length

    # ------------------------------------------------------------------ #
    # construction (driven by the STOMP sweep / engine blocks)
    # ------------------------------------------------------------------ #
    @property
    def base_length(self) -> int:
        """The base subsequence length the store was built at."""
        return self._base_length

    @property
    def capacity(self) -> int:
        """Number of entries retained per profile (the paper's ``p``)."""
        return self._capacity

    @property
    def exclusion_factor(self) -> int:
        """Denominator of the trivial-match radius."""
        return self._exclusion_factor

    @property
    def lower_bound_kind(self) -> str:
        """The lower-bound flavour used for ``maxLB`` (``"tight"``/``"paper"``)."""
        return self._lower_bound_kind

    @property
    def kernel(self) -> str:
        """The path :meth:`advance_to`/:meth:`evaluate` take (``"native"``/``"numpy"``)."""
        return self._kernel

    @property
    def current_length(self) -> int:
        """The length the stored dot products currently correspond to."""
        return self._current_length

    @property
    def num_profiles(self) -> int:
        """Number of base-length query offsets."""
        return self._num_profiles

    @property
    def row_range(self) -> tuple[int, int]:
        """The ``[start, stop)`` row range this store/fragment covers."""
        return (self._row_start, self._row_stop)

    @property
    def is_fragment(self) -> bool:
        """True when this store covers only a sub-range of the rows."""
        return (self._row_start, self._row_stop) != (0, self._num_profiles)

    def require_ready_for_ingest(self, window: int) -> None:
        """Validate that this store can receive a base pass at ``window``.

        Shared by every ``ingest_store=`` entry point (the serial STOMP
        sweep and the engine's block-local path) so the contract — built
        at this base length, not yet advanced — is enforced identically
        everywhere.
        """
        if self._base_length != int(window):
            raise InvalidParameterError(
                f"ingest_store base length {self._base_length} does not "
                f"match the window {window}"
            )
        if self._current_length != self._base_length:
            raise InvalidParameterError(
                "ingest_store was already advanced past its base length"
            )

    def retention_inputs(self, count: int) -> tuple:
        """What the native base pass retains rows of ``count`` dot products
        with: ``(base_length, base_means, base_stds, radius, compensated,
        capacity)``, the store's own statistics, zone and compensation
        decision (``repro_stomp_retain_segment`` in ``_stomp_kernel.c``)."""
        if count != self._num_profiles:
            raise InvalidParameterError(
                f"expected {self._num_profiles} dot products, got {count}"
            )
        return (
            self._base_length,
            self._base_means,
            self._base_stds,
            self._base_radius,
            1 if self._base_compensated else 0,
            self._capacity,
        )

    def retention_block(self, rows: int) -> dict:
        """An empty block for ``rows`` retained rows, which the native base
        pass fills and hands back to :meth:`ingest_centered_profile`: one
        array per :data:`_STATE_FIELDS` entry, in that order."""
        block = {}
        for field in _STATE_FIELDS:
            array = getattr(self, f"_{field}")
            block[field] = np.empty((rows, *array.shape[1:]), dtype=array.dtype)
        return block

    def ingest_centered_profile(
        self, offset: int, dot_products: "np.ndarray | Mapping"
    ) -> None:
        """Retain the most promising entries of one base distance profile.

        Called once per query offset with the sliding dot products of that
        offset's base-length profile, taken on the **mean-centered** series
        (``stats.centered_values`` — the space the centered STOMP sweep and
        the engine blocks run in).  Which entries stay is the retention rule
        of the module docstring.

        A mapping instead of an array is a block of rows the native base
        pass already retained in C, row ``k`` belonging to offset
        ``offset + k``: the :data:`_STATE_FIELDS` arrays, ``capacity``
        entries per row.  The store checks that each field has its own
        array's dtype and row shape and that the rows are its own and not
        yet ingested, then copies them.
        """
        if isinstance(dot_products, Mapping):
            self._ingest_block(int(offset), dot_products)
            return
        if not self._row_start <= offset < self._row_stop:
            raise InvalidParameterError(
                f"profile {offset} is outside this store's row range "
                f"[{self._row_start}, {self._row_stop})"
            )
        row = offset - self._row_start
        if self._populated[row]:
            raise InvalidParameterError(f"profile {offset} was already ingested")
        length = self._base_length
        qt = np.asarray(dot_products, dtype=np.float64)
        if qt.size != self._num_profiles:
            raise InvalidParameterError(
                f"expected {self._num_profiles} dot products, got {qt.size}"
            )
        sigma_i = self._base_stds[offset]
        if sigma_i <= 0.0:
            # Degenerate query: the correlation is undefined, so the lower
            # bound cannot be trusted.  Disable pruning for this offset.
            self._unbounded[row] = True
            self._populated[row] = True
            return

        centered = centered_dot_products(
            qt,
            length,
            float(self._base_means[offset]),
            self._base_means,
            compensated=self._base_compensated,
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            correlations = centered / (length * sigma_i * self._base_stds)
        # Neighbours that are constant at the base length do not obey the
        # bound either; give them the best possible correlation so they are
        # retained (and therefore tracked exactly) whenever possible.
        correlations = np.where(self._base_constant, 1.0, correlations)
        np.clip(correlations, -1.0, 1.0, out=correlations)

        radius = self._base_radius
        start = max(0, offset - radius)
        stop = min(self._num_profiles, offset + radius + 1)
        candidate_mask = np.ones(self._num_profiles, dtype=bool)
        candidate_mask[start:stop] = False
        candidate_indices = np.flatnonzero(candidate_mask)

        if candidate_indices.size == 0:
            self._complete[row] = True
            self._populated[row] = True
            return

        capacity = self._capacity
        if candidate_indices.size <= capacity:
            kept = candidate_indices
            self._complete[row] = True
        else:
            candidate_correlations = correlations[candidate_indices]
            partition = np.argpartition(candidate_correlations, -capacity)
            threshold = candidate_correlations[partition[-capacity]]
            ceiling = candidate_correlations[partition[:-capacity]].max()
            if ceiling < threshold:
                top = partition[-capacity:]
            else:
                # Ties straddle the cut: everything above the threshold
                # stays, the lowest offsets fill the rest (candidate
                # positions ascend with the offsets).
                above = np.flatnonzero(candidate_correlations > threshold)
                tied = np.flatnonzero(candidate_correlations == threshold)
                top = np.concatenate([above, tied[: capacity - above.size]])
            kept = candidate_indices[top]
            self._pruned_correlation_ceiling[row] = float(ceiling)
            # If some constant-at-base neighbour was *not* retained we cannot
            # bound its distance at longer lengths: disable pruning here.
            constant_candidates = int(np.count_nonzero(self._base_constant[candidate_indices]))
            if constant_candidates:
                constant_kept = int(np.count_nonzero(self._base_constant[kept]))
                if constant_kept < constant_candidates:
                    self._unbounded[row] = True

        kept = kept[np.lexsort((kept, -correlations[kept]))]
        count = kept.size
        self._neighbors[row, :count] = kept
        self._dot_products[row, :count] = qt[kept]
        self._base_correlations[row, :count] = correlations[kept]
        self._populated[row] = True

    def _ingest_block(self, offset: int, block: Mapping) -> None:
        """:meth:`ingest_centered_profile` of retained rows ``offset, offset + 1, ...``."""
        rows = len(block["populated"])
        for field in _STATE_FIELDS:
            array = getattr(self, f"_{field}")
            given = np.asarray(block[field])
            shape = (rows, *array.shape[1:])
            if given.shape != shape or given.dtype != array.dtype:
                raise InvalidParameterError(
                    f"block field {field!r} must be {array.dtype} of shape {shape}, "
                    f"got {given.dtype} of shape {given.shape}"
                )
        stop = offset + rows
        if offset < self._row_start or stop > self._row_stop:
            outside = offset if offset < self._row_start else max(offset, self._row_stop)
            raise InvalidParameterError(
                f"profile {outside} is outside this store's row range "
                f"[{self._row_start}, {self._row_stop})"
            )
        local = slice(offset - self._row_start, stop - self._row_start)
        ingested = np.flatnonzero(self._populated[local])
        if ingested.size:
            raise InvalidParameterError(
                f"profile {offset + int(ingested[0])} was already ingested"
            )
        for field in _STATE_FIELDS:
            getattr(self, f"_{field}")[local] = block[field]

    # ------------------------------------------------------------------ #
    # fragments: split / export / merge
    # ------------------------------------------------------------------ #
    def split(self, row_range: tuple[int, int]) -> "PartialProfileStore":
        """An empty fragment of this store covering ``[start, stop)`` rows.

        The fragment shares the centered series and base statistics (no
        copies) but owns its retention arrays.  Ingest its rows, then
        :meth:`merge` it back; disjoint fragments merged in any order
        reproduce the serially-ingested store bit for bit.
        """
        start, stop = int(row_range[0]), int(row_range[1])
        if not self._row_start <= start <= stop <= self._row_stop:
            raise InvalidParameterError(
                f"split range [{start}, {stop}) is outside this store's rows "
                f"[{self._row_start}, {self._row_stop})"
            )
        if self._current_length != self._base_length:
            raise InvalidParameterError(
                "cannot split a store whose dot products were already advanced "
                f"to length {self._current_length}"
            )
        fragment = type(self).fragment(
            self._values,
            self._base_means,
            self._base_stds,
            self._base_length,
            self._capacity,
            exclusion_factor=self._exclusion_factor,
            lower_bound_kind=self._lower_bound_kind,
            row_range=(start, stop),
        )
        return fragment

    def export_state(self) -> dict:
        """The fragment's rows as a compact picklable mapping.

        Contains only the per-row retention arrays plus identifying
        metadata — O(rows × capacity), independent of the series length —
        so a process-pool worker ships its block's rows, not the series.
        """
        state = {
            "row_range": (self._row_start, self._row_stop),
            "base_length": self._base_length,
            "capacity": self._capacity,
            "exclusion_factor": self._exclusion_factor,
            "lower_bound_kind": self._lower_bound_kind,
            "current_length": self._current_length,
        }
        for field in _STATE_FIELDS:
            state[field] = getattr(self, f"_{field}")
        return state

    def merge(self, other: "PartialProfileStore | Mapping") -> None:
        """Copy a disjoint fragment's rows into this store.

        ``other`` is a fragment produced by :meth:`split` (or
        :meth:`fragment`) — or its :meth:`export_state` mapping when it
        crossed a process boundary.  Both stores must still be at the base
        length and agree on every configuration knob; the target rows must
        not have been ingested yet.  The copy is positional, so the merged
        store is bit-for-bit the store that would have ingested those rows
        serially.
        """
        state = other.export_state() if isinstance(other, PartialProfileStore) else other
        for knob in ("base_length", "capacity", "exclusion_factor", "lower_bound_kind"):
            if state[knob] != getattr(self, f"_{knob}"):
                raise InvalidParameterError(
                    f"cannot merge stores with different {knob}: "
                    f"{state[knob]!r} != {getattr(self, f'_{knob}')!r}"
                )
        if state["current_length"] != self._base_length:
            raise InvalidParameterError(
                "cannot merge a fragment whose dot products were advanced to "
                f"length {state['current_length']}"
            )
        if self._current_length != self._base_length:
            raise InvalidParameterError(
                "cannot merge into a store whose dot products were advanced to "
                f"length {self._current_length}"
            )
        start, stop = (int(edge) for edge in state["row_range"])
        if not self._row_start <= start <= stop <= self._row_stop:
            raise InvalidParameterError(
                f"fragment rows [{start}, {stop}) are outside this store's rows "
                f"[{self._row_start}, {self._row_stop})"
            )
        local = slice(start - self._row_start, stop - self._row_start)
        if bool(self._populated[local].any()):
            raise InvalidParameterError(
                f"rows [{start}, {stop}) were already ingested in this store"
            )
        for field in _STATE_FIELDS:
            getattr(self, f"_{field}")[local] = state[field]

    # ------------------------------------------------------------------ #
    # per-length evaluation
    # ------------------------------------------------------------------ #
    def advance_to(self, length: int) -> None:
        """Grow the stored dot products from the current length to ``length``.

        The update appends one trailing **centered** product per intermediate
        length.  Accumulation stays sequential per step — each lane's running
        sum must round exactly like the historical one-length-at-a-time loop
        (the reference in ``tests/test_core_partial_profile.py``) — but
        everything invariant across the tail window is hoisted out of the
        loop: row indices, neighbour applicability cutoffs (``applicable`` at
        step ``t`` is simply ``t < n - neighbour``, monotone in ``t``), and
        the gather bases.  Each step then classifies itself with two O(rows)
        prefix reductions: all-applicable steps take a mask-free fused
        gather-multiply-add (the common case while the tail window is short),
        none-applicable steps skip outright, and only the shrinking boundary
        between them pays the masked update.  This is VALMOD's per-length hot
        loop when ``length_step > 1`` or the length range is wide.  On the
        native kernel ``repro_store_advance`` runs the same update row by
        row in C.
        """
        if length < self._current_length:
            raise InvalidParameterError(
                f"cannot shrink the store from length {self._current_length} to {length}"
            )
        if length > self._values.size:
            raise InvalidParameterError(
                f"length {length} exceeds the series length {self._values.size}"
            )
        start_length = self._current_length
        if length <= start_length:
            return
        values = self._values
        n = values.size
        neighbors = self._neighbors
        lib = self._native_lib()
        if lib is not None:
            lib.repro_store_advance(
                values,
                n,
                self._row_start,
                self._row_stop,
                self._capacity,
                neighbors,
                self._dot_products,
                start_length,
                length,
                np.empty(self._row_stop - self._row_start, dtype=np.int64),
            )
            self._current_length = length
            return
        has_neighbor = neighbors >= 0
        # Step t contributes to a lane iff t < cap; cap = 0 parks empty lanes.
        neighbor_cap = np.where(has_neighbor, n - neighbors, 0)
        neighbor_base = np.where(has_neighbor, neighbors, 0)
        cap_row_min = neighbor_cap.min(axis=1)
        cap_row_max = neighbor_cap.max(axis=1)
        row_base = np.arange(self._row_start, self._row_stop)
        for current in range(start_length, length):
            # Rows whose query subsequence still fits at length current + 1.
            local_stop = min(self._row_stop, n - current)
            count = local_stop - self._row_start
            if count <= 0:
                break
            if current >= int(cap_row_max[:count].max()):
                continue
            query_tail = values[row_base[:count] + current][:, np.newaxis]
            if current < int(cap_row_min[:count].min()):
                self._dot_products[:count] += (
                    query_tail * values[neighbors[:count] + current]
                )
            else:
                applicable = current < neighbor_cap[:count]
                neighbor_tail = np.where(
                    applicable,
                    values[np.minimum(neighbor_base[:count] + current, n - 1)],
                    0.0,
                )
                self._dot_products[:count] += np.where(
                    applicable, query_tail * neighbor_tail, 0.0
                )
        self._current_length = length

    def _native_lib(self):
        """The compiled kernel when this store runs native, else ``None``."""
        return _native.load() if self._kernel == "native" else None

    def _minima(
        self,
        length: int,
        num_rows: int,
        radius: int,
        means: np.ndarray,
        stds: np.ndarray,
        compensated: bool,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-row ``minDist`` and its neighbour over the retained entries (numpy path)."""
        rows = np.arange(num_rows)
        neighbors = self._neighbors[:num_rows]
        qt = self._dot_products[:num_rows]

        applicable = (
            (neighbors >= 0)
            & (neighbors < num_rows)
            & (np.abs(neighbors - rows[:, np.newaxis]) > radius)
        )
        safe_neighbors = np.clip(neighbors, 0, num_rows - 1)
        mu_i = means[:num_rows][:, np.newaxis]
        sigma_i = stds[:num_rows][:, np.newaxis]
        mu_j = means[safe_neighbors]
        sigma_j = stds[safe_neighbors]

        centered = centered_dot_products(
            qt,
            length,
            mu_i,
            mu_j,
            compensated=compensated,
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            correlation = centered / (length * sigma_i * sigma_j)
        np.clip(correlation, -1.0, 1.0, out=correlation)
        squared = 2.0 * length * (1.0 - correlation)
        np.maximum(squared, 0.0, out=squared)
        distances = np.sqrt(squared)
        # Constant-subsequence conventions.
        i_const = sigma_i <= 0.0
        j_const = sigma_j <= 0.0
        distances = np.where(i_const & j_const, 0.0, distances)
        distances = np.where(i_const ^ j_const, np.sqrt(length), distances)
        distances = np.where(applicable, distances, np.inf)

        min_positions = np.argmin(distances, axis=1)
        min_distances = distances[rows, min_positions]
        min_indices = np.where(
            np.isfinite(min_distances), neighbors[rows, min_positions], -1
        )
        return min_distances, min_indices.astype(np.int64)

    def evaluate(self, length: int) -> LengthEvaluation:
        """Evaluate every partial profile at ``length``.

        Advances the dot products if needed, computes the true distances of
        the retained (still applicable) entries, the per-profile ``minDist``
        and ``maxLB``, and the valid/non-valid classification.
        """
        if self.is_fragment:
            raise InvalidParameterError(
                f"cannot evaluate a fragment covering rows "
                f"[{self._row_start}, {self._row_stop}); merge it into a full "
                "store first"
            )
        if self._stats is None:
            raise InvalidParameterError(
                "this store was built without sliding statistics and cannot "
                "evaluate; merge it into a stats-backed store"
            )
        if length < self._base_length:
            raise InvalidParameterError(
                f"length {length} is smaller than the base length {self._base_length}"
            )
        self.advance_to(length)
        values = self._values
        n = values.size
        num_rows = n - length + 1
        # Centered window means: the stored products are centered, so the
        # conversion subtracts length * mu~_i * mu~_j (see module docstring).
        means, stds = self._stats.centered_mean_std(length)
        radius = default_exclusion_radius(length, self._exclusion_factor)
        compensated = self._stats.conversion_compensated(length)
        lib = self._native_lib()
        if lib is not None:
            min_distances = np.empty(num_rows, dtype=np.float64)
            min_indices = np.empty(num_rows, dtype=np.int64)
            lib.repro_store_minima(
                self._neighbors,
                self._dot_products,
                num_rows,
                self._capacity,
                length,
                radius,
                means,
                stds,
                1 if compensated else 0,
                min_distances,
                min_indices,
            )
        else:
            min_distances, min_indices = self._minima(
                length, num_rows, radius, means, stds, compensated
            )

        max_lower_bounds = np.asarray(
            lower_bound(
                self._pruned_correlation_ceiling[:num_rows],
                self._base_length,
                length,
                self._base_stds[:num_rows],
                stds[:num_rows],
                kind=self._lower_bound_kind,
            ),
            dtype=np.float64,
        )
        # If any subsequence of this length is constant, its distance to any
        # query is sqrt(length) by convention, which the correlation-based
        # bound does not cover; cap the threshold accordingly.
        if bool(np.any(stds[:num_rows] <= 0.0)):
            cap = max(float(np.sqrt(length)) - STD_EPSILON, 0.0)
            max_lower_bounds = np.minimum(max_lower_bounds, cap)
        # Degenerate cases where the bound does not hold: disable pruning.
        max_lower_bounds = np.where(self._unbounded[:num_rows], 0.0, max_lower_bounds)
        max_lower_bounds = np.where(stds[:num_rows] <= 0.0, 0.0, max_lower_bounds)
        # A complete profile retains every candidate, so its retained minimum
        # is exact no matter what: the threshold is infinite by definition.
        max_lower_bounds = np.where(self._complete[:num_rows], np.inf, max_lower_bounds)

        valid = min_distances <= max_lower_bounds
        return LengthEvaluation(
            length=length,
            min_distances=min_distances,
            min_indices=min_indices,
            max_lower_bounds=max_lower_bounds,
            valid=valid,
        )
