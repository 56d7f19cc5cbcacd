"""Registry dispatch: every algorithm reachable, errors list valid keys,
request parameters checked against the runner before it runs."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.api.registry import (
    AlgorithmSpec,
    algorithm_keys,
    capabilities,
    iter_specs,
    register,
    registered_kinds,
    resolve_algorithm,
    unregister,
)
from repro.api.requests import AnalysisRequest
from repro.api.session import analyze
from repro.baselines.brute_force_range import brute_force_range
from repro.baselines.moen import moen
from repro.baselines.quick_motif import quick_motif_range
from repro.baselines.stomp_range import stomp_range
from repro.core.discords import variable_length_discords
from repro.core.skimp import skimp
from repro.core.valmod import valmod
from repro.exceptions import InvalidParameterError
from repro.matrix_profile.ab_join import ab_join
from repro.matrix_profile.brute_force import brute_force_matrix_profile
from repro.matrix_profile.mpdist import mpdist
from repro.matrix_profile.scrimp import scrimp, scrimp_pp
from repro.matrix_profile.stamp import stamp
from repro.matrix_profile.stomp import stomp
from repro.service import BackgroundService, ServiceClient, ServiceConfig


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(5)
    return np.cumsum(rng.standard_normal(300))


@pytest.fixture()
def session(series):
    return analyze(series)


@pytest.fixture(scope="module")
def client():
    with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
        with ServiceClient(port=background.port, timeout=120) as client:
            yield client


class TestResolution:
    def test_all_expected_kinds_registered(self):
        assert registered_kinds() == [
            "ab_join",
            "discords",
            "matrix_profile",
            "motifs",
            "mpdist",
            "pan_profile",
        ]

    def test_matrix_profile_keys(self):
        assert algorithm_keys("matrix_profile") == [
            "brute",
            "scrimp",
            "scrimp++",
            "stamp",
            "stomp",
        ]

    def test_motif_keys(self):
        assert algorithm_keys("motifs") == [
            "brute",
            "moen",
            "quick_motif",
            "stomp_range",
            "valmod",
        ]

    def test_unknown_kind_lists_kinds(self):
        with pytest.raises(InvalidParameterError, match="available kinds.*matrix_profile"):
            resolve_algorithm("sorcery")

    def test_unknown_algo_lists_valid_keys(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            resolve_algorithm("matrix_profile", "gpu")
        message = str(excinfo.value)
        for key in algorithm_keys("matrix_profile"):
            assert key in message

    def test_unknown_motif_method_lists_valid_keys(self, session):
        with pytest.raises(InvalidParameterError) as excinfo:
            session.motifs(16, 20, method="magic")
        message = str(excinfo.value)
        for key in algorithm_keys("motifs"):
            assert key in message

    def test_defaults(self):
        assert resolve_algorithm("matrix_profile").key == "stomp"
        assert resolve_algorithm("motifs").key == "valmod"

    def test_aliases_resolve_to_canonical_keys(self):
        assert resolve_algorithm("motifs", "stomp-range").key == "stomp_range"
        assert resolve_algorithm("motifs", "quickmotif").key == "quick_motif"
        assert resolve_algorithm("matrix_profile", "brute-force").key == "brute"
        assert resolve_algorithm("matrix_profile", "scrimp_pp").key == "scrimp++"

    def test_duplicate_registration_rejected(self):
        spec = resolve_algorithm("matrix_profile", "stomp")
        from repro.api import registry

        with pytest.raises(InvalidParameterError):
            registry.register(
                AlgorithmSpec(
                    kind=spec.kind,
                    key=spec.key,
                    runner=spec.runner,
                    description="dup",
                )
            )

    def test_capabilities_cover_every_spec(self):
        table = capabilities()
        assert len(table) == 14
        stomp_row = next(
            row for row in table if row["kind"] == "matrix_profile" and row["key"] == "stomp"
        )
        assert stomp_row["engine_aware"] and stomp_row["default"]


#: The smallest valid parameters of each kind (``other`` is a plain list
#: so the same documents also travel as service JSON).
VALID_PARAMS = {
    "matrix_profile": {"window": 16},
    "motifs": {"min_length": 16, "max_length": 18},
    "discords": {"min_length": 16, "max_length": 18},
    "pan_profile": {"min_length": 16, "max_length": 18},
    "ab_join": {"other": np.sin(np.arange(120) / 5.0).tolist(), "window": 16},
    "mpdist": {"other": np.sin(np.arange(120) / 5.0).tolist(), "window": 16},
}

#: The library function each built-in runner forwards its options to.
TARGETS = {
    ("matrix_profile", "stomp"): stomp,
    ("matrix_profile", "scrimp"): scrimp,
    ("matrix_profile", "scrimp++"): scrimp_pp,
    ("matrix_profile", "stamp"): stamp,
    ("matrix_profile", "brute"): brute_force_matrix_profile,
    ("motifs", "valmod"): valmod,
    ("motifs", "stomp_range"): stomp_range,
    ("motifs", "moen"): moen,
    ("motifs", "quick_motif"): quick_motif_range,
    ("motifs", "brute"): brute_force_range,
    ("discords", "exact"): variable_length_discords,
    ("pan_profile", "skimp"): skimp,
    ("ab_join", "mass"): ab_join,
    ("mpdist", "mpdist"): mpdist,
}

BUILTIN_SLOTS = [(spec.kind, spec.key) for spec in iter_specs()]


class TestParameterValidation:
    """A request parameter that does not fit the algorithm is an
    InvalidParameterError raised before the runner runs, which the service
    answers 422 like every other request the library rejects."""

    def _rejected(self, series, session, client, request, name):
        with pytest.raises(InvalidParameterError, match=f"'{name}'"):
            session.run(request)
        assert session.cache_info()["misses"] == 0
        status, payload = client.analyze_raw(series, request)
        assert status == 422, payload
        assert f"'{name}'" in payload["error"]

    @pytest.mark.parametrize("kind, key", BUILTIN_SLOTS)
    def test_unknown_parameter_is_rejected(self, series, session, client, kind, key):
        request = AnalysisRequest(
            kind=kind, algo=key, params={**VALID_PARAMS[kind], "bogus": 1}
        )
        self._rejected(series, session, client, request, "bogus")

    def test_motif_method_as_a_parameter_is_rejected(self, series, session, client):
        request = AnalysisRequest(
            kind="motifs", params={**VALID_PARAMS["motifs"], "method": "valmod"}
        )
        self._rejected(series, session, client, request, "method")

    def test_missing_window_is_rejected(self, series, session, client):
        request = AnalysisRequest(kind="matrix_profile", params={})
        self._rejected(series, session, client, request, "window")

    def test_type_error_inside_a_runner_stays_a_500(self, series, session, client):
        def broken_runner(session, **params):
            raise TypeError("a bug inside the algorithm")

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_type_error",
                runner=broken_runner,
                description="test-only runner with a bug",
            )
        )
        try:
            request = AnalysisRequest(kind="mpdist", algo="_test_type_error")
            with pytest.raises(TypeError, match="a bug inside"):
                session.run(request)
            status, payload = client.analyze_raw(series, request)
            assert status == 500
            assert "a bug inside the algorithm" in payload["error"]
        finally:
            unregister("mpdist", "_test_type_error")

    def test_declared_options_are_parameters_of_the_algorithm(self):
        assert sorted(TARGETS) == sorted(BUILTIN_SLOTS)
        for slot, target in TARGETS.items():
            spec = resolve_algorithm(*slot)
            accepted = set(inspect.signature(target).parameters)
            if spec.key in ("moen", "quick_motif"):
                accepted.add("top_k")  # the runner drops it
            assert set(spec.options) <= accepted, slot


class TestDispatchMatchesDirectCalls:
    """Every registered algorithm, driven through one AnalysisRequest path."""

    @pytest.mark.parametrize(
        "algo, direct",
        [
            ("stomp", lambda s, w: stomp(s, w)),
            ("scrimp", lambda s, w: scrimp(s, w, random_state=0)),
            ("scrimp++", lambda s, w: scrimp_pp(s, w, random_state=0)),
            ("stamp", lambda s, w: stamp(s, w)),
            ("brute", lambda s, w: brute_force_matrix_profile(s, w)),
        ],
    )
    def test_matrix_profile_algorithms(self, series, session, algo, direct):
        options = {"random_state": 0} if "scrimp" in algo else {}
        request = AnalysisRequest(
            kind="matrix_profile", algo=algo, params={"window": 24, **options}
        )
        dispatched = session.run(request).profile()
        reference = direct(series, 24)
        assert np.array_equal(dispatched.indices, reference.indices)
        np.testing.assert_allclose(
            dispatched.distances, reference.distances, atol=1e-8
        )

    @pytest.mark.parametrize(
        "method, direct",
        [
            ("valmod", lambda s: valmod(s, 16, 20, top_k=1)),
            ("stomp_range", lambda s: stomp_range(s, 16, 20, top_k=1)),
            ("moen", lambda s: moen(s, 16, 20)),
            ("quick_motif", lambda s: quick_motif_range(s, 16, 20)),
            ("brute", lambda s: brute_force_range(s, 16, 20, top_k=1)),
        ],
    )
    def test_motif_algorithms(self, series, session, method, direct):
        params = {"min_length": 16, "max_length": 20}
        if method in ("valmod", "stomp_range", "brute"):
            params["top_k"] = 1
        request = AnalysisRequest(kind="motifs", algo=method, params=params)
        dispatched = session.run(request)
        reference = direct(series)
        ref_best = (
            reference.best_motif()
            if hasattr(reference, "best_motif")
            else reference.best_overall()
        )
        best = dispatched.best_motif()
        assert best.offsets == ref_best.offsets
        assert best.distance == pytest.approx(ref_best.distance, abs=1e-9)
