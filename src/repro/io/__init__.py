"""Persistence of analysis artefacts (profiles, joins, pan profiles, VALMAP, results).

:mod:`repro.io.frame` holds the binary frame the service answers in when a
client asks for it.
"""

from repro.io.serialization import (
    cache_entry_result_bytes,
    load_analysis_request,
    load_analysis_result,
    load_cache_entry,
    load_join_profile,
    load_matrix_profile,
    load_pan_profile,
    load_result,
    load_valmap,
    save_analysis_request,
    save_analysis_result,
    save_cache_entry,
    save_join_profile,
    save_matrix_profile,
    save_pan_profile,
    save_result,
    save_valmap,
)

__all__ = [
    "cache_entry_result_bytes",
    "load_analysis_request",
    "load_analysis_result",
    "load_cache_entry",
    "load_join_profile",
    "load_matrix_profile",
    "load_pan_profile",
    "load_result",
    "load_valmap",
    "save_analysis_request",
    "save_analysis_result",
    "save_cache_entry",
    "save_join_profile",
    "save_matrix_profile",
    "save_pan_profile",
    "save_result",
    "save_valmap",
]
