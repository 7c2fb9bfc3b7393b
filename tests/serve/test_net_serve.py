"""Model-level serving: upload → compile → cached program → microbatched
inference.

Boots one real server (random port, background thread) and drives the
``/v1/nets`` + ``/v1/net_predict`` endpoints through
:class:`repro.serve.client.ServeClient`. The core acceptance criterion
is **byte-identity**: logits from the server — where the scheduler
coalesces concurrent requests into one stacked forward pass per layer —
must equal a direct in-process ``convert_to_mvm`` forward bit-for-bit,
for every engine kind and with active non-idealities.
"""

import concurrent.futures

import numpy as np
import pytest

from repro.api import EmulationSpec
from repro.api.session import build_engine, resolve_emulator
from repro.core.zoo import GeniexZoo
from repro.funcsim.convert import convert_to_mvm
from repro.models.mlp import MLP
from repro.nn.tensor import Tensor, no_grad
from repro.serve.client import ServeClient, ServerError
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread

TINY_GENIEX = EmulationSpec.from_dict({
    "engine": "geniex",
    "xbar": {"rows": 4, "cols": 4},
    "emulator": {"sampling": {"n_g_matrices": 3, "n_v_per_g": 4,
                              "seed": 0},
                 "training": {"hidden": 8, "epochs": 2, "batch_size": 8,
                              "seed": 0}},
})
FAULTS = {"seed": 5, "variation": {"sigma": 0.2},
          "stuck": {"p_on": 0.05, "p_off": 0.05}}

N_IN, N_OUT = 6, 3


def tiny_mlp(seed: int = 3) -> MLP:
    return MLP([N_IN, 8, N_OUT], seed=seed)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    registry = ModelRegistry(zoo)
    server = EmulationServer(registry, max_batch_rows=32,
                             flush_deadline_s=0.002)
    with ServerThread(server) as handle:
        yield handle, registry, zoo


@pytest.fixture
def client(served):
    handle, _, _ = served
    with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
        yield c


def local_logits(registry: ModelRegistry, zoo: GeniexZoo,
                 spec: EmulationSpec, model, x: np.ndarray) -> np.ndarray:
    """The reference: direct in-process inference under the *server's*
    runtime policy (``serving_spec``), sharing the server's zoo so a
    geniex emulator resolves to the identical trained artifact."""
    sspec = registry.serving_spec(spec)
    emulator = resolve_emulator(sspec, zoo=zoo) \
        if sspec.engine == "geniex" else None
    converted = convert_to_mvm(model, build_engine(sspec, emulator=emulator))
    with no_grad():
        return converted(Tensor(np.asarray(x, dtype=np.float64))) \
            .data.astype(np.float64)


class TestUploadAndCompile:
    def test_upload_reports_program_shape(self, client):
        resp = client.upload_net(tiny_mlp(), spec=EmulationSpec.from_dict(
            {"engine": "exact"}))
        assert resp["net_key"].startswith("netprog-")
        assert resp["engine"] == "exact"
        assert resp["n_in"] == N_IN
        assert resp["n_mvm_layers"] == 2
        assert resp["n_layers"] == 3          # linear, relu, linear
        assert resp["compile_seconds"] >= 0.0

    def test_reupload_is_a_cache_hit(self, client):
        spec = EmulationSpec.from_dict({"engine": "exact"})
        first = client.upload_net(tiny_mlp(), spec=spec)
        again = client.upload_net(tiny_mlp(), spec=spec)
        assert again["net_key"] == first["net_key"]
        assert again["from_cache"] is True

    def test_different_weights_get_different_keys(self, client):
        spec = EmulationSpec.from_dict({"engine": "exact"})
        a = client.upload_net(tiny_mlp(seed=3), spec=spec)
        b = client.upload_net(tiny_mlp(seed=4), spec=spec)
        assert a["net_key"] != b["net_key"]

    def test_different_spec_gets_different_key(self, client):
        model = tiny_mlp()
        a = client.upload_net(model, spec=EmulationSpec.from_dict(
            {"engine": "exact"}))
        b = client.upload_net(model, spec=EmulationSpec.from_dict(
            {"engine": "analytical"}))
        assert a["net_key"] != b["net_key"]


class TestByteIdentity:
    @pytest.mark.parametrize("spec", [
        EmulationSpec.from_dict({"engine": "exact"}),
        EmulationSpec.from_dict({"engine": "analytical"}),
        TINY_GENIEX,
        TINY_GENIEX.evolve(nonideality=FAULTS),
    ], ids=["exact", "analytical", "geniex", "geniex-nonideal"])
    def test_server_logits_match_local_inference(self, served, client,
                                                 spec):
        _, registry, zoo = served
        model = tiny_mlp()
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, N_IN))
        key = client.upload_net(model, spec=spec)["net_key"]
        got = client.net_predict(x, net_key=key)
        ref = local_logits(registry, zoo, spec, model, x)
        np.testing.assert_array_equal(got, ref)

    def test_concurrent_requests_coalesce_and_stay_byte_identical(
            self, served, client):
        """Eight concurrent clients hit one net; the scheduler stacks
        their rows into shared per-layer batches, and every response
        still equals the sequential reference bit-for-bit."""
        handle, registry, zoo = served
        model = tiny_mlp(seed=9)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(model, spec=spec)["net_key"]
        rng = np.random.default_rng(5)
        batches = [rng.standard_normal((3, N_IN)) for _ in range(8)]
        refs = [local_logits(registry, zoo, spec, model, x)
                for x in batches]

        before = client.metrics()["net"]
        def one(i):
            with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
                return c.net_predict(batches[i], net_key=key)
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            outs = list(pool.map(one, range(8)))
        for got, ref in zip(outs, refs):
            np.testing.assert_array_equal(got, ref)
        after = client.metrics()["net"]
        execs = after["layer_executions"] - before["layer_executions"]
        # 8 requests x 2 MVM layers each would be 16 executions run
        # sequentially; coalescing must do strictly better, i.e. the
        # mean rows per layer execution exceeds one request's 3 rows.
        assert execs < 16
        mean_rows = 8 * 3 * 2 / execs
        assert mean_rows > 3.0, \
            f"no cross-request coalescing (mean layer rows {mean_rows})"

    def test_streaming_equals_plain(self, served, client):
        _, registry, zoo = served
        model = tiny_mlp(seed=7)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(model, spec=spec)["net_key"]
        x = np.random.default_rng(2).standard_normal((10, N_IN))
        plain = client.net_predict(x, net_key=key)
        streamed = client.net_predict(x, net_key=key, stream=True,
                                      chunk_rows=3)
        np.testing.assert_array_equal(streamed, plain)
        ref = local_logits(registry, zoo, spec, model, x)
        np.testing.assert_array_equal(plain, ref)

    def test_single_row_round_trip(self, client):
        model = tiny_mlp()
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(model, spec=spec)["net_key"]
        x = np.random.default_rng(3).standard_normal(N_IN)
        y = client.net_predict(x, net_key=key)
        assert y.shape == (N_OUT,)


class TestDiskPersistence:
    def test_cold_registry_serves_learned_key_from_the_zoo(self, served,
                                                           client):
        """A fresh server process over the same artifact store resolves a
        ``net_key`` it never compiled — the fleet's cold-worker path —
        and answers byte-identically."""
        _, registry, zoo = served
        model = tiny_mlp(seed=13)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(model, spec=spec)["net_key"]
        x = np.random.default_rng(4).standard_normal((4, N_IN))
        warm_logits = client.net_predict(x, net_key=key)

        cold = EmulationServer(ModelRegistry(GeniexZoo(
            cache_dir=zoo.cache_dir)))
        with ServerThread(cold) as handle2:
            with ServeClient("127.0.0.1", handle2.port,
                             timeout=300) as c2:
                cold_logits = c2.net_predict(x, net_key=key)
                # And a re-upload there is a disk hit, not a recompile.
                again = c2.upload_net(model, spec=spec)
        np.testing.assert_array_equal(cold_logits, warm_logits)
        assert again["from_cache"] is True

    def test_unknown_net_key_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.net_predict(np.ones(4), net_key="netprog-deadbeef")
        assert excinfo.value.status == 404
        assert "netprog-deadbeef" in str(excinfo.value)


class TestProtocolErrors:
    def test_wrong_feature_count_is_400(self, client):
        key = client.upload_net(tiny_mlp(), spec=EmulationSpec.from_dict(
            {"engine": "exact"}))["net_key"]
        with pytest.raises(ServerError) as excinfo:
            client.net_predict(np.ones(N_IN + 1), net_key=key)
        assert excinfo.value.status == 400

    def test_malformed_wire_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/nets", {
                "spec": {"engine": "exact"},
                "net": {"format": "repro-net/1", "layers": [
                    {"kind": "warp-drive", "config": {}}]}})
        assert excinfo.value.status == 400
        assert "warp-drive" in str(excinfo.value)

    def test_net_predict_rejects_inline_net(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/net_predict", {
                "net_key": "netprog-x", "net": {"format": "repro-net/1"},
                "x": [1.0]})
        assert excinfo.value.status == 400

    def test_upload_requires_net(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/nets",
                            {"spec": {"engine": "exact"}})
        assert excinfo.value.status == 400


class TestNetMetrics:
    def test_snapshot_and_prometheus_expose_net_families(self, client):
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(tiny_mlp(), spec=spec)["net_key"]
        client.net_predict(np.ones((2, N_IN)), net_key=key)
        snap = client.metrics()["net"]
        assert snap["requests"] >= 1
        assert snap["rows"] >= 2
        assert snap["layer_executions"] >= 2
        assert snap["mean_layer_rows"] > 0
        text = client.prometheus_metrics()
        for family in ("repro_net_uploads_total",
                       "repro_net_predict_requests_total",
                       "repro_net_predict_rows_total",
                       "repro_net_compile_seconds",
                       "repro_net_layer_executions_total",
                       "repro_net_layer_rows"):
            assert family in text, f"{family} missing from exposition"


class TestIdempotentRetryPath:
    """``predict_fr``/``predict_currents`` ride the shared ``_request``
    retry: a keep-alive connection reaped by the server's idle timeout
    reconnects and re-sends transparently (the one provably-safe retry),
    and the re-sent request still answers correctly."""

    def test_predicts_survive_idle_reaped_connection(self, tmp_path):
        import time
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        server = EmulationServer(ModelRegistry(zoo), idle_timeout_s=0.2)
        model = {"rows": 4, "cols": 4,
                 "sampling": {"n_g_matrices": 3, "n_v_per_g": 4,
                              "seed": 0},
                 "training": {"hidden": 8, "epochs": 2, "batch_size": 8,
                              "seed": 0}}
        rng = np.random.default_rng(0)
        g = rng.uniform(1.7e-6, 1e-5, size=(4, 4))
        v = rng.uniform(0.0, 0.25, size=(2, 4))
        with ServerThread(server) as handle:
            with ServeClient("127.0.0.1", handle.port,
                             timeout=300) as client:
                key = client.register_crossbar(model=model,
                                               conductances=g)
                fr_before = client.predict_fr(v, crossbar_key=key)
                cur_before = client.predict_currents(v, crossbar_key=key)
                time.sleep(0.5)   # server reaps the idle keep-alive
                # Same client object: the first re-send hits the dead
                # socket and must retry on a fresh connection.
                fr_after = client.predict_fr(v, crossbar_key=key)
                time.sleep(0.5)
                cur_after = client.predict_currents(v, crossbar_key=key)
        np.testing.assert_array_equal(fr_after, fr_before)
        np.testing.assert_array_equal(cur_after, cur_before)
