"""Plan/execute split, kernel equivalence and engine bookkeeping.

Covers the determinism contract of :mod:`repro.funcsim.runtime`: the
fused and interpreted kernels must report identical hardware counters,
and noisy ADC runs must reproduce run to run while drawing fresh noise
per matmul. Also covers the content-digest prepared-matrix uids,
mergeable engine statistics and the layer programs attached at prepare.
"""

import threading

import numpy as np
import pytest

from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError
from repro.funcsim import (
    EngineStats,
    FuncSimConfig,
    TileResultCache,
    make_engine,
)
from repro.funcsim.planner import plan_layer
from repro.xbar.config import CrossbarConfig

XCFG = CrossbarConfig(rows=8, cols=8)
SCFG = FuncSimConfig()


@pytest.fixture
def operands(rng):
    x = rng.normal(size=(23, 20)) * 0.4
    w = rng.normal(size=(20, 13)) * 0.3
    return x, w


@pytest.fixture(scope="module")
def tiny_emulator(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    return zoo.get_or_train(
        XCFG, SamplingSpec(n_g_matrices=3, n_v_per_g=4, seed=0),
        TrainSpec(hidden=8, epochs=2, batch_size=8, seed=0))


def _engine(kind, emulator=None, **kwargs):
    return make_engine(kind, XCFG, SCFG, emulator=emulator,
                       batch_invariant=True, **kwargs)


class TestBackendEquivalence:
    """numpy (fused) and interp kernels agree on the modelled hardware."""

    def test_stats_identical_across_backends(self, operands):
        x, w = operands
        snapshots = []
        for backend in ("numpy", "interp"):
            engine = _engine("exact", backend=backend)
            engine.matmul(x, engine.prepare(w))
            snap = engine.stats.snapshot()
            # Dispatch counters differ by design; hardware events do not.
            snap.pop("fused_calls")
            snap.pop("fallback_calls")
            snapshots.append(snap)
        assert snapshots[0] == snapshots[1]


class TestNoiseDeterminism:
    """Seeded ADC noise: reproducible run to run, fresh per matmul."""

    NOISY = FuncSimConfig(adc_noise_lsb=0.5, adc_seed=7)

    def _noisy_engine(self, **kwargs):
        return make_engine("exact", XCFG, self.NOISY, **kwargs)

    def test_reproducible_run_to_run(self, operands):
        x, w = operands
        outputs = []
        for _ in range(2):
            engine = self._noisy_engine()
            outputs.append(engine.matmul(x, engine.prepare(w)))
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_sequence_number_varies_noise(self, operands):
        """Two successive noisy matmuls must not reuse noise samples."""
        x, w = operands
        engine = self._noisy_engine()
        prepared = engine.prepare(w)
        a = engine.matmul(x, prepared)
        b = engine.matmul(x, prepared)
        assert not np.array_equal(a, b)


class TestPreparedUid:
    def test_content_digest_is_stable(self, operands):
        _, w = operands
        engine = _engine("exact")
        assert engine.prepare(w).uid == engine.prepare(w).uid

    def test_distinct_weights_distinct_uids(self, operands):
        _, w = operands
        engine = _engine("exact")
        assert engine.prepare(w).uid != engine.prepare(w + 0.01).uid

    def test_engine_config_in_uid(self, operands):
        _, w = operands
        a = _engine("exact").prepare(w)
        b = make_engine("exact", XCFG, SCFG.with_precision(8),
                        batch_invariant=True).prepare(w)
        assert a.uid != b.uid

    def test_uid_stable_across_processes(self, operands):
        """The fork-safety property: a child process derives the same uid."""
        import multiprocessing

        _, w = operands

        def child(queue, w):
            from repro.funcsim import make_engine as mk
            eng = mk("exact", XCFG, SCFG, batch_invariant=True)
            queue.put(eng.prepare(w).uid)

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=child, args=(queue, w))
        proc.start()
        child_uid = queue.get(timeout=60)
        proc.join()
        assert child_uid == _engine("exact").prepare(w).uid


class TestEngineStats:
    def test_merge_accumulates(self):
        a, b = EngineStats(), EngineStats()
        a.merge({"readouts": 3, "cache_hits": 1})
        b.merge({"readouts": 4, "matmuls": 2})
        a.merge(b)
        assert a.readouts == 7 and a.matmuls == 2 and a.cache_hits == 1

    def test_merge_rejects_unknown_counter(self):
        with pytest.raises(ConfigError):
            EngineStats().merge({"bogus": 1})

    def test_concurrent_merge_is_coherent(self):
        stats = EngineStats()
        threads = [threading.Thread(
            target=lambda: [stats.merge({"readouts": 1})
                            for _ in range(500)]) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.readouts == 2000

    def test_cache_counters_thread_safe(self):
        cache = TileResultCache(64)
        value = np.zeros(1)

        def worker():
            for k in range(200):
                if cache.get(("k", k % 8)) is None:
                    cache.put(("k", k % 8), value)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hits, misses = cache.counters()
        assert hits + misses == 4 * 200


class TestPrograms:
    def test_program_attached_at_prepare(self, operands):
        _, w = operands
        engine = _engine("exact")
        prepared = engine.prepare(w)
        assert prepared.program is not None
        plan = prepared.program.plan
        assert (plan.n_in, plan.n_out) == (20, 13)
        assert plan.cost.readouts > 0

    def test_plan_layer_matches_engine_constants(self, operands):
        _, w = operands
        engine = _engine("exact")
        prepared = engine.prepare(w)
        plan = plan_layer(engine, prepared).plan
        assert plan.v_lsb == engine._v_lsb
        assert plan.adc_lsb_a == engine.adc.lsb_a


class TestFactoryTokens:
    def test_emulator_identity_in_uid(self, operands, tiny_emulator,
                                      tmp_path):
        """Differently trained emulators must never share prepared uids."""
        _, w = operands
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo2"))
        other = zoo.get_or_train(
            XCFG, SamplingSpec(n_g_matrices=3, n_v_per_g=4, seed=1),
            TrainSpec(hidden=8, epochs=2, batch_size=8, seed=1))
        uid_a = _engine("geniex", tiny_emulator).prepare(w).uid
        uid_b = _engine("geniex", other).prepare(w).uid
        assert uid_a != uid_b

    def test_batch_invariance_in_uid(self, operands):
        _, w = operands
        invariant = make_engine("exact", XCFG, SCFG, batch_invariant=True)
        plain = make_engine("exact", XCFG, SCFG)
        assert invariant.prepare(w).uid != plain.prepare(w).uid
