"""String-keyed algorithm registry behind the unified analysis API.

Every computation the :class:`repro.api.Analysis` session can dispatch is
described by one :class:`AlgorithmSpec`: its *kind* (the question family),
its registry *key*, the runner callable, and capability metadata (is it
exact, anytime, engine-aware?).  The session resolves ``(kind, algo)``
through :func:`resolve_algorithm`, so every entry point — the Python
methods, deserialized :class:`~repro.api.requests.AnalysisRequest`
documents, the CLI, the benchmark harness — funnels through one table.

Runners receive the session as their first argument and pull shared state
(validated values, the memoized :class:`~repro.stats.sliding.SlidingStats`,
the per-window base FFT products, the :class:`~repro.api.session.EngineConfig`)
from it instead of recomputing per call.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.exceptions import InvalidParameterError

__all__ = [
    "AlgorithmSpec",
    "register",
    "unregister",
    "resolve_algorithm",
    "algorithm_keys",
    "registered_kinds",
    "iter_specs",
    "capabilities",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: identity, runner, capability metadata.

    Attributes
    ----------
    kind:
        Question family: ``matrix_profile``, ``motifs``, ``discords``,
        ``pan_profile``, ``ab_join`` or ``mpdist``.
    key:
        Canonical registry key (e.g. ``"stomp"``).
    runner:
        ``runner(session, **params) -> payload``.
    description:
        One-line summary shown by capability listings.
    engine_aware:
        Whether the runner honours the session's
        :class:`~repro.api.session.EngineConfig` (block-partitioned /
        batched execution).
    exact:
        Whether the result is exact at default parameters.
    anytime:
        Whether partial runs yield usable approximations.
    aliases:
        Alternative keys accepted by :func:`resolve_algorithm` (legacy CLI
        spellings like ``"stomp-range"``).
    options:
        Keyword options the runner forwards to its algorithm, beyond the
        runner's own named parameters; ``None`` accepts whatever its
        ``**options`` catches.
    """

    kind: str
    key: str
    runner: Callable
    description: str
    engine_aware: bool = False
    exact: bool = True
    anytime: bool = False
    aliases: Tuple[str, ...] = field(default_factory=tuple)
    options: Tuple[str, ...] | None = None

    def check_params(self, params: Mapping[str, Any]) -> None:
        """Reject request parameters the runner cannot take.

        Raises :class:`~repro.exceptions.InvalidParameterError` naming a
        missing required parameter or an unknown one before the runner
        runs, so a request that does not fit the algorithm never surfaces
        as a ``TypeError`` from inside it.
        """
        signature = inspect.signature(self.runner)
        try:
            signature.bind(None, **params)  # None stands in for the session
        except TypeError as error:
            raise InvalidParameterError(
                f"{self.kind} algorithm {self.key!r}: {error}"
            ) from None
        if self.options is None:
            return
        accepted = {
            parameter.name
            for parameter in list(signature.parameters.values())[1:]
            if parameter.kind
            in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        } | set(self.options)
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise InvalidParameterError(
                f"{self.kind} algorithm {self.key!r} takes no parameter "
                f"{', '.join(map(repr, unknown))}; it takes {sorted(accepted)}"
            )


_REGISTRY: Dict[Tuple[str, str], AlgorithmSpec] = {}
_ALIASES: Dict[Tuple[str, str], str] = {}
_DEFAULTS: Dict[str, str] = {}
#: Default key each spec displaced when it became its kind's default —
#: lets :func:`unregister` restore the previous default instead of
#: silently promoting the alphabetically-first survivor.
_DISPLACED_DEFAULTS: Dict[Tuple[str, str], str | None] = {}


def register(spec: AlgorithmSpec, *, default: bool = False) -> AlgorithmSpec:
    """Add a spec to the registry (optionally as its kind's default)."""
    slot = (spec.kind, spec.key)
    if slot in _REGISTRY:
        raise InvalidParameterError(
            f"algorithm {spec.key!r} is already registered for kind {spec.kind!r}"
        )
    _REGISTRY[slot] = spec
    for alias in spec.aliases:
        _ALIASES[(spec.kind, alias)] = spec.key
    if default or spec.kind not in _DEFAULTS:
        _DISPLACED_DEFAULTS[slot] = _DEFAULTS.get(spec.kind)
        _DEFAULTS[spec.kind] = spec.key
    return spec


def unregister(kind: str, key: str) -> None:
    """Remove a registered spec (and its aliases and default slot).

    Exists for test substrates that install synthetic algorithms (e.g. the
    service suite's deliberately slow runner) and must restore the global
    registry afterwards; production code never unregisters.
    """
    spec = _REGISTRY.pop((kind, key), None)
    if spec is None:
        raise InvalidParameterError(
            f"no {kind!r} algorithm {key!r} is registered"
        )
    for alias in spec.aliases:
        _ALIASES.pop((kind, alias), None)
    displaced = _DISPLACED_DEFAULTS.pop((kind, key), None)
    if _DEFAULTS.get(kind) == key:
        remaining = algorithm_keys(kind)
        if displaced is not None and displaced in remaining:
            _DEFAULTS[kind] = displaced  # restore the default this spec took
        elif remaining:
            _DEFAULTS[kind] = remaining[0]
        else:
            _DEFAULTS.pop(kind, None)


def iter_specs() -> List[AlgorithmSpec]:
    """Every registered spec, sorted by ``(kind, key)`` (for tests/clients)."""
    return [spec for _, spec in sorted(_REGISTRY.items())]


def registered_kinds() -> List[str]:
    """The registered computation kinds, sorted."""
    return sorted({kind for kind, _ in _REGISTRY})


def algorithm_keys(kind: str) -> List[str]:
    """Canonical keys registered for one kind, sorted."""
    return sorted(key for registered, key in _REGISTRY if registered == kind)


def resolve_algorithm(kind: str, algo: str | None = None) -> AlgorithmSpec:
    """Resolve ``(kind, algo)`` to a spec, accepting aliases.

    ``algo=None`` selects the kind's default.  Unknown kinds and keys raise
    :class:`~repro.exceptions.InvalidParameterError` messages that list the
    valid choices.
    """
    kinds = registered_kinds()
    if kind not in kinds:
        raise InvalidParameterError(
            f"unknown analysis kind {kind!r}; available kinds: {kinds}"
        )
    if algo is None:
        algo = _DEFAULTS[kind]
    algo = _ALIASES.get((kind, algo), algo)
    spec = _REGISTRY.get((kind, algo))
    if spec is None:
        raise InvalidParameterError(
            f"unknown {kind} algorithm {algo!r}; available: {algorithm_keys(kind)}"
        )
    return spec


def capabilities() -> List[dict]:
    """Capability metadata of every registered algorithm (for docs / clients)."""
    return [
        {
            "kind": spec.kind,
            "key": spec.key,
            "description": spec.description,
            "engine_aware": spec.engine_aware,
            "exact": spec.exact,
            "anytime": spec.anytime,
            "aliases": list(spec.aliases),
            "default": _DEFAULTS.get(spec.kind) == spec.key,
        }
        for (_, _), spec in sorted(_REGISTRY.items())
    ]


# --------------------------------------------------------------------- #
# built-in algorithms
# --------------------------------------------------------------------- #
def _mp_stomp(session, window: int, **options):
    from repro.matrix_profile.stomp import stomp

    engine = session.engine
    if engine.enabled:
        return stomp(
            session.values,
            window,
            stats=session.stats,
            engine=engine.executor,
            n_jobs=engine.n_jobs,
            block_size=engine.block_size,
            kernel=engine.kernel,
            **options,
        )
    return stomp(
        session.values,
        window,
        stats=session.stats,
        kernel=engine.kernel,
        centered_first_row_qt=session.base_dot_products(window),
        **options,
    )


def _mp_scrimp(session, window: int, **options):
    from repro.matrix_profile.scrimp import scrimp

    engine = session.engine
    if engine.kernel is not None:
        options.setdefault("kernel", engine.kernel)
    return scrimp(session.values, window, stats=session.stats, **options)


def _mp_scrimp_pp(session, window: int, **options):
    from repro.matrix_profile.scrimp import scrimp_pp

    engine = session.engine
    if engine.kernel is not None:
        options.setdefault("kernel", engine.kernel)
    return scrimp_pp(session.values, window, stats=session.stats, **options)


def _mp_stamp(session, window: int, **options):
    from repro.matrix_profile.stamp import stamp

    return stamp(session.values, window, stats=session.stats, **options)


def _mp_brute(session, window: int, **options):
    from repro.matrix_profile.brute_force import brute_force_matrix_profile

    return brute_force_matrix_profile(session.values, window, **options)


def _motifs_valmod(session, min_length: int, max_length: int, **options):
    from repro.core.valmod import valmod

    engine = session.engine
    return valmod(
        session.series,
        min_length,
        max_length,
        stats=session.stats,
        engine=engine.executor,
        n_jobs=engine.n_jobs,
        block_size=engine.block_size,
        kernel=engine.kernel,
        **options,
    )


def _motifs_stomp_range(session, min_length: int, max_length: int, **options):
    from repro.baselines.stomp_range import stomp_range

    engine = session.engine
    if engine.enabled:
        options = {**options, "engine": engine.executor, "n_jobs": engine.n_jobs}
    if engine.kernel is not None:
        options = {**options, "kernel": engine.kernel}
    return stomp_range(
        session.series, min_length, max_length, stats=session.stats, **options
    )


def _motifs_moen(session, min_length: int, max_length: int, **options):
    from repro.baselines.moen import moen

    options.pop("top_k", None)  # MOEN reports the single best pair per length
    return moen(session.series, min_length, max_length, stats=session.stats, **options)


def _motifs_quick_motif(session, min_length: int, max_length: int, **options):
    from repro.baselines.quick_motif import quick_motif_range

    options.pop("top_k", None)  # QuickMotif reports the single best pair per length
    return quick_motif_range(session.series, min_length, max_length, **options)


def _motifs_brute(session, min_length: int, max_length: int, **options):
    from repro.baselines.brute_force_range import brute_force_range

    return brute_force_range(session.series, min_length, max_length, **options)


def _discords_exact(session, min_length: int, max_length: int, **options):
    from repro.core.discords import variable_length_discords

    return variable_length_discords(
        session.series, min_length, max_length, stats=session.stats, **options
    )


def _pan_profile_skimp(session, min_length: int, max_length: int, **options):
    from repro.core.skimp import skimp

    engine = session.engine
    if engine.enabled:
        options = {**options, "engine": engine.executor, "n_jobs": engine.n_jobs}
    if engine.kernel is not None:
        options = {**options, "kernel": engine.kernel}
    return skimp(
        session.series, min_length, max_length, stats=session.stats, **options
    )


def _ab_join_mass(session, other, window: int, **options):
    from repro.matrix_profile.ab_join import ab_join

    engine = session.engine
    if engine.enabled:
        options.setdefault("engine", engine.executor)
        options.setdefault("n_jobs", engine.n_jobs)
        options.setdefault("block_size", engine.block_size)
    if engine.kernel is not None:
        options.setdefault("kernel", engine.kernel)
    other_values, other_stats = session.coerce_other(other)
    return ab_join(
        session.values,
        other_values,
        window,
        stats_a=session.stats,
        stats_b=other_stats,
        **options,
    )


def _mpdist_default(session, other, window: int, **options):
    from repro.matrix_profile.mpdist import mpdist

    engine = session.engine
    if engine.enabled:
        options.setdefault("engine", engine.executor)
        options.setdefault("n_jobs", engine.n_jobs)
    if engine.kernel is not None:
        options.setdefault("kernel", engine.kernel)
    other_values, other_stats = session.coerce_other(other)
    return mpdist(
        session.values,
        other_values,
        window,
        stats_a=session.stats,
        stats_b=other_stats,
        **options,
    )


register(
    AlgorithmSpec(
        kind="matrix_profile",
        key="stomp",
        runner=_mp_stomp,
        description="exact O(n^2) matrix profile via the STOMP recurrence",
        options=("exclusion_radius",),
        engine_aware=True,
    ),
    default=True,
)
register(
    AlgorithmSpec(
        kind="matrix_profile",
        key="scrimp",
        runner=_mp_scrimp,
        description="exact-at-completion anytime profile via diagonal traversal",
        options=("fraction", "exclusion_radius", "random_state", "state", "kernel"),
        anytime=True,
    )
)
register(
    AlgorithmSpec(
        kind="matrix_profile",
        key="scrimp++",
        runner=_mp_scrimp_pp,
        description="PreSCRIMP seeding plus a (possibly partial) SCRIMP sweep",
        options=("fraction", "step", "exclusion_radius", "random_state", "kernel"),
        anytime=True,
        aliases=("scrimp_pp", "scrimppp"),
    )
)
register(
    AlgorithmSpec(
        kind="matrix_profile",
        key="stamp",
        runner=_mp_stamp,
        description="anytime profile via one MASS call per subsequence",
        options=("exclusion_radius", "order", "max_profiles", "random_state"),
        anytime=True,
    )
)
register(
    AlgorithmSpec(
        kind="matrix_profile",
        key="brute",
        runner=_mp_brute,
        description="O(n^2 m) definition-level oracle",
        options=("exclusion_radius",),
        aliases=("brute-force", "brute_force"),
    )
)

register(
    AlgorithmSpec(
        kind="motifs",
        key="valmod",
        runner=_motifs_valmod,
        description="exact variable-length motifs with lower-bound pruning (the paper)",
        options=(
            "top_k",
            "profile_capacity",
            "exclusion_factor",
            "lower_bound_kind",
            "length_step",
            "track_checkpoints",
            "update_both_members",
        ),
        engine_aware=True,
    ),
    default=True,
)
register(
    AlgorithmSpec(
        kind="motifs",
        key="stomp_range",
        runner=_motifs_stomp_range,
        description="one full STOMP profile per length of the range",
        options=(
            "top_k",
            "length_step",
            "exclusion_factor",
            "engine",
            "n_jobs",
            "kernel",
        ),
        engine_aware=True,
        aliases=("stomp-range",),
    )
)
register(
    AlgorithmSpec(
        kind="motifs",
        key="moen",
        runner=_motifs_moen,
        description="exact best pair per length with MOEN-style length bounds",
        options=("top_k", "exclusion_factor", "lower_bound_kind"),
    )
)
register(
    AlgorithmSpec(
        kind="motifs",
        key="quick_motif",
        runner=_motifs_quick_motif,
        description="segment-tree pruned fixed-length motif search per length",
        options=("top_k", "length_step", "segments", "group_size", "exclusion_factor"),
        aliases=("quickmotif", "quick-motif"),
    )
)
register(
    AlgorithmSpec(
        kind="motifs",
        key="brute",
        runner=_motifs_brute,
        description="definition-level range oracle",
        options=("top_k", "length_step", "exclusion_factor"),
        aliases=("brute-force", "brute_force"),
    )
)

register(
    AlgorithmSpec(
        kind="discords",
        key="exact",
        runner=_discords_exact,
        description="variable-length discords from per-length STOMP profiles",
        options=("k", "length_step", "exclusion_factor"),
    ),
    default=True,
)
register(
    AlgorithmSpec(
        kind="pan_profile",
        key="skimp",
        runner=_pan_profile_skimp,
        description="SKIMP pan matrix profile in breadth-first length order",
        options=(
            "num_lengths",
            "lengths",
            "exclusion_factor",
            "engine",
            "n_jobs",
            "kernel",
        ),
        engine_aware=True,
    ),
    default=True,
)
register(
    AlgorithmSpec(
        kind="ab_join",
        key="mass",
        runner=_ab_join_mass,
        description="one-sided AB-join via the kernelized cross-series STOMP recurrence",
        options=("kernel", "reseed_interval", "engine", "n_jobs", "block_size"),
        engine_aware=True,
    ),
    default=True,
)
register(
    AlgorithmSpec(
        kind="mpdist",
        key="mpdist",
        runner=_mpdist_default,
        description="k-th smallest of the combined (kernelized) AB-join profiles",
        options=("percentile", "kernel", "reseed_interval", "engine", "n_jobs"),
        engine_aware=True,
    ),
    default=True,
)
