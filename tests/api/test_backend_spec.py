"""RuntimeSpec.backend: round-trip, digest neutrality, serving policy.

The kernel selector (compiled fused kernel or interpreted reference) is
an execution knob with bit-identical outputs across every value — so it
must serialise with the spec, validate strictly, and never participate
in ``key()`` / ``model_key()`` / warm-engine digests.
"""

import pytest

from repro.api import EmulationSpec
from repro.api.spec import RuntimeSpec
from repro.errors import ConfigError
from repro.serve.registry import ModelRegistry


class TestRoundTrip:
    @pytest.mark.parametrize("backend", [None, "numpy", "interp"])
    def test_json_round_trip(self, backend):
        spec = EmulationSpec(engine="exact",
                             runtime=RuntimeSpec(backend=backend))
        restored = EmulationSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.runtime.backend == backend

    def test_evolve_sets_backend(self):
        spec = EmulationSpec(engine="exact")
        assert spec.evolve(runtime={"backend": "numpy"}) \
            .runtime.backend == "numpy"


class TestValidation:
    def test_unknown_backend_rejected(self):
        # numba and torch backends no longer exist.
        for backend in ("cuda", "numba", "torch"):
            with pytest.raises(ConfigError, match="unknown array backend"):
                RuntimeSpec(backend=backend)

    def test_unknown_backend_cites_dotted_path(self):
        for backend in ("cuda", "numba", "torch"):
            with pytest.raises(ConfigError, match="invalid spec.runtime"):
                EmulationSpec.from_dict(
                    {"engine": "exact", "runtime": {"backend": backend}})


class TestDigestNeutrality:
    """Backends are bit-identical, so keys must not fork on them."""

    @pytest.mark.parametrize("backend", ["numpy", "interp"])
    def test_keys_unchanged(self, backend):
        base = EmulationSpec(engine="exact")
        evolved = base.evolve(runtime={"backend": backend})
        assert evolved.key() == base.key()
        assert evolved.model_key() == base.model_key()


class TestServingPolicy:
    def test_serving_spec_applies_registry_backend(self):
        registry = ModelRegistry(backend="numpy")
        spec = registry.serving_spec(EmulationSpec(engine="exact"))
        assert spec.runtime.backend == "numpy"

    def test_serving_spec_default_backend_is_none(self):
        registry = ModelRegistry()
        spec = registry.serving_spec(
            EmulationSpec(engine="exact",
                          runtime=RuntimeSpec(backend="interp")))
        # runtime is server policy: a client backend choice is replaced.
        assert spec.runtime.backend is None

    def test_serving_keys_stable_across_backends(self):
        plain = ModelRegistry()
        numpyb = ModelRegistry(backend="numpy")
        client = EmulationSpec(engine="exact")
        assert plain.serving_spec(client).key() \
            == numpyb.serving_spec(client).key()
