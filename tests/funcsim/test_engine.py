import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import IdealMvmEngine, make_engine
from repro.xbar.config import CrossbarConfig


XCFG = CrossbarConfig(rows=8, cols=8)
SCFG = FuncSimConfig()


@pytest.fixture
def operands(rng):
    x = rng.normal(size=(9, 20)) * 0.4
    w = rng.normal(size=(20, 13)) * 0.3
    return x, w


class TestFuncSimConfig:
    def test_paper_defaults(self):
        cfg = FuncSimConfig()
        assert cfg.weight_bits == 16 and cfg.weight_frac_bits == 13
        assert cfg.adc_bits == 14
        assert cfg.accumulator_bits == 32
        assert cfg.n_streams == 4 and cfg.n_slices == 4

    def test_stream_slice_counts(self):
        cfg = FuncSimConfig(stream_bits=1, slice_bits=2)
        assert cfg.n_streams == 15  # 15 magnitude bits, 1 at a time
        assert cfg.n_slices == 8

    def test_with_precision(self):
        cfg = FuncSimConfig().with_precision(8)
        assert cfg.weight_bits == 8 and cfg.weight_frac_bits == 5
        assert cfg.activation_bits == 8
        with pytest.raises(ConfigError):
            FuncSimConfig().with_precision(2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FuncSimConfig(stream_bits=0)
        with pytest.raises(ConfigError):
            FuncSimConfig(adc_headroom=0)


class TestIdealEngine:
    def test_close_to_float_matmul(self, operands):
        x, w = operands
        engine = IdealMvmEngine(SCFG)
        out = engine.matmul(x, engine.prepare(w))
        # 16-bit quantisation: error per output ~ K * lsb levels.
        np.testing.assert_allclose(out, x @ w, atol=1e-2)

    def test_prepare_validates_shape(self):
        engine = IdealMvmEngine(SCFG)
        with pytest.raises(ShapeError):
            engine.prepare(np.zeros(4))

    def test_coarse_precision_coarser_result(self, operands):
        x, w = operands
        fine = IdealMvmEngine(SCFG)
        coarse = IdealMvmEngine(SCFG.with_precision(6))
        err_fine = np.abs(fine.matmul(x, fine.prepare(w)) - x @ w).mean()
        err_coarse = np.abs(coarse.matmul(x, coarse.prepare(w))
                            - x @ w).mean()
        assert err_fine < err_coarse


class TestExactAnalogEngine:
    """The decode-path oracle: exact analog tiles must reproduce Ideal FxP."""

    def test_matches_ideal_engine(self, operands):
        x, w = operands
        ideal = IdealMvmEngine(SCFG)
        exact = make_engine("exact", XCFG, SCFG)
        ref = ideal.matmul(x, ideal.prepare(w))
        out = exact.matmul(x, exact.prepare(w))
        np.testing.assert_allclose(out, ref, atol=1e-6)

    @pytest.mark.parametrize("stream_bits,slice_bits",
                             [(1, 1), (2, 4), (4, 2), (8, 8)])
    def test_matches_for_all_slicings(self, operands, stream_bits,
                                      slice_bits):
        x, w = operands
        cfg = SCFG.replace(stream_bits=stream_bits, slice_bits=slice_bits,
                           adc_bits=20)
        ideal = IdealMvmEngine(cfg)
        exact = make_engine("exact", XCFG, cfg)
        np.testing.assert_allclose(exact.matmul(x, exact.prepare(w)),
                                   ideal.matmul(x, ideal.prepare(w)),
                                   atol=1e-6)

    def test_negative_inputs_handled(self, rng):
        x = -np.abs(rng.normal(size=(4, 10)))
        w = rng.normal(size=(10, 6)) * 0.3
        cfg = SCFG
        ideal = IdealMvmEngine(cfg)
        exact = make_engine("exact", XCFG, cfg)
        np.testing.assert_allclose(exact.matmul(x, exact.prepare(w)),
                                   ideal.matmul(x, ideal.prepare(w)),
                                   atol=1e-6)

    def test_single_vector_matmul(self, rng):
        x = rng.normal(size=(1, 5))
        w = rng.normal(size=(5, 3)) * 0.5
        exact = make_engine("exact", XCFG, SCFG)
        assert exact.matmul(x, exact.prepare(w)).shape == (1, 3)

    def test_input_width_validated(self, operands):
        x, w = operands
        exact = make_engine("exact", XCFG, SCFG)
        prepared = exact.prepare(w)
        with pytest.raises(ShapeError):
            exact.matmul(np.zeros((2, 7)), prepared)


class TestNonIdealEngines:
    def test_analytical_engine_degrades_output(self, operands):
        x, w = operands
        ideal = IdealMvmEngine(SCFG)
        ana = make_engine("analytical", XCFG, SCFG)
        ref = ideal.matmul(x, ideal.prepare(w))
        out = ana.matmul(x, ana.prepare(w))
        err = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert 0.001 < err < 0.5

    def test_decoupled_engine_close_to_analytical(self, operands):
        x, w = operands
        ana = make_engine("analytical", XCFG, SCFG)
        dec = make_engine("decoupled", XCFG, SCFG)
        out_a = ana.matmul(x, ana.prepare(w))
        out_d = dec.matmul(x, dec.prepare(w))
        scale = np.abs(out_a).mean()
        assert np.abs(out_a - out_d).mean() / scale < 0.2

    @pytest.mark.slow
    def test_circuit_engine_small_case(self, rng):
        x = rng.normal(size=(2, 6)) * 0.3
        w = rng.normal(size=(6, 4)) * 0.3
        cfg = SCFG.with_precision(6)
        circ = make_engine("circuit", XCFG, cfg)
        ideal = IdealMvmEngine(cfg)
        out = circ.matmul(x, circ.prepare(w))
        ref = ideal.matmul(x, ideal.prepare(w))
        assert np.abs(out - ref).mean() / np.abs(ref).mean() < 0.5

    def test_geniex_engine_requires_emulator(self):
        with pytest.raises(ConfigError):
            make_engine("geniex", XCFG, SCFG)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_engine("hspice", XCFG, SCFG)

    def test_factory_shape_check(self):
        from repro.funcsim.engine import AnalyticalTileFactory, \
            CrossbarMvmEngine
        factory = AnalyticalTileFactory(CrossbarConfig(rows=4, cols=4))
        with pytest.raises(ConfigError):
            CrossbarMvmEngine(XCFG, SCFG, factory)


class TestEngineKindsDocumented:
    """`make_engine`'s docstring, error message and ENGINE_KINDS agree,
    and every documented kind actually constructs."""

    def _tiny_emulator(self):
        from repro.core.emulator import GeniexEmulator
        from repro.core.model import GeniexNet, Normalizer
        normalizer = Normalizer.from_config(XCFG, fr_min=0.9, fr_max=1.2)
        return GeniexEmulator(GeniexNet(XCFG.rows, XCFG.cols, hidden=4,
                                        normalizer=normalizer))

    def test_docstring_lists_exactly_engine_kinds(self):
        import re

        from repro.funcsim.engine import ENGINE_KINDS
        first_line = make_engine.__doc__.strip().splitlines()
        header = " ".join(line.strip() for line in first_line[:2])
        documented = re.findall(r"``([^`]+)``", header)[0]
        kinds = tuple(k.strip() for k in documented.split("|"))
        assert kinds == ENGINE_KINDS

    def test_every_documented_kind_constructs(self):
        from repro.funcsim.engine import ENGINE_KINDS
        for kind in ENGINE_KINDS:
            emulator = self._tiny_emulator() if kind == "geniex" else None
            engine = make_engine(kind, XCFG, SCFG, emulator=emulator)
            assert hasattr(engine, "matmul") and hasattr(engine, "prepare")

    def test_undocumented_kind_raises_config_error(self):
        from repro.funcsim.engine import ENGINE_KINDS
        for bogus in ("spice", "", "GENIEX", "exact "):
            assert bogus not in ENGINE_KINDS
            with pytest.raises(ConfigError, match="unknown engine kind"):
                make_engine(bogus, XCFG, SCFG)


class TestInvariantKindsSingleSource:
    """make_engine's batch-invariance acceptance matches INVARIANT_KINDS
    exactly, so the serving policy helper can never drift from the
    factory's enforcement."""

    def test_factory_accepts_flag_exactly_for_invariant_kinds(self):
        from repro.core.emulator import GeniexEmulator
        from repro.core.model import GeniexNet, Normalizer
        from repro.funcsim.engine import ENGINE_KINDS, INVARIANT_KINDS

        normalizer = Normalizer.from_config(XCFG, fr_min=0.9, fr_max=1.2)
        emulator = GeniexEmulator(GeniexNet(XCFG.rows, XCFG.cols, hidden=4,
                                            normalizer=normalizer))
        for kind in ENGINE_KINDS:
            if kind == "ideal":
                continue  # inherently invariant; flag is a no-op
            build = lambda: make_engine(
                kind, XCFG, SCFG, batch_invariant=True,
                emulator=emulator if kind == "geniex" else None)
            if kind in INVARIANT_KINDS:
                engine = build()
                assert engine.tile_factory.batch_invariant
            else:
                with pytest.raises(ConfigError,
                                   match="batch-invariant"):
                    build()

    def test_spec_helper_builds_on_the_same_tuple(self):
        from repro.api.spec import supports_batch_invariance
        from repro.funcsim.engine import INVARIANT_KINDS

        for kind in INVARIANT_KINDS:
            assert supports_batch_invariance(kind, SCFG)
