"""Smoke tests of the experiment drivers at micro scale.

The full figure reproductions live in ``benchmarks/``; here we only check
that every driver runs end-to-end on a miniature profile and produces
well-formed, printable results.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.experiments.common import QUICK, format_table, get_profile
from repro.experiments.fig2_nf_analysis import run_fig2
from repro.experiments.fig3_nonlinearity import run_fig3
from repro.experiments.table1_comparison import run_table1

MICRO = dataclasses.replace(
    QUICK, name="micro", xbar_sizes=(4, 16), base_size=8,
    r_on_sweep_ohm=(50e3, 300e3), onoff_sweep=(2.0, 10.0),
    nf_n_g=2, nf_n_v=4)


class TestProfiles:
    def test_default_profile_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert get_profile().name == "quick"

    def test_env_selects_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert get_profile().name == "full"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            get_profile("huge")

    def test_profile_crossbar_overrides(self):
        cfg = QUICK.crossbar(rows=16)
        assert cfg.rows == 16 and cfg.cols == 16

    def test_specs_constructible(self):
        QUICK.sampling_spec(0)
        QUICK.train_spec(0)
        QUICK.funcsim()


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], ["x", 3]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        text = format_table("T", ["a"], [])
        assert "a" in text


class TestDriversMicro:
    def test_table1(self):
        result = run_table1()
        assert "this reproduction" in result.format()

    def test_fig2_micro(self):
        result = run_fig2(MICRO)
        text = result.format()
        assert "Fig 2(b)" in text
        assert len(result.by_size) == 2
        # Size trend should hold even at micro scale (small tolerance: at
        # tiny sizes the device-boost term dominates the IR drops).
        assert result.by_size[0].median <= result.by_size[1].median + 0.005

    def test_fig3_micro(self):
        result = run_fig3(MICRO, vsupply_grid=(0.1, 0.5))
        assert len(result.relative_error) == 2
        low, high = result.relative_error
        assert high[1] > low[1]
        assert "Fig 3(b)" in result.format()

    def test_variations_micro(self):
        from repro.experiments.variations import run_variations
        result = run_variations(MICRO, sigmas=(0.0, 0.2),
                                fault_rates=(0.0, 0.05))
        assert len(result.by_sigma) == 2
        # Variation must widen the NF spread.
        assert result.by_sigma[1][2] > result.by_sigma[0][2]
        assert "stuck-at-fault" in result.format()

    def test_robustness_micro(self):
        from repro.api import get_preset
        from repro.experiments.robustness import run_robustness
        spec = get_preset("quick-exact").evolve(xbar={"rows": 8,
                                                      "cols": 8})
        result = run_robustness(
            spec=spec, engines=("exact", "analytical"),
            sigmas=(0.0, 0.2), fault_rates=(0.0,), drift_times=(0.0,),
            batch=4)
        assert len(result.grid) == 4
        by_cell = {(row[0], row[1]): row for row in result.grid}
        for engine in ("exact", "analytical"):
            clean, faulty = by_cell[(engine, "0")], by_cell[(engine,
                                                             "0.2")]
            assert clean[-1] == "yes", "clean cell must reuse the " \
                "precomputed baseline"
            assert faulty[4] > clean[4], \
                f"{engine}: variation should raise MVM error"
        assert "funcsim" in result.format()

    def test_robustness_mitigated_columns(self):
        from repro.api import get_preset
        from repro.experiments.robustness import run_robustness
        spec = get_preset("quick-analytical").evolve(xbar={"rows": 8,
                                                           "cols": 8})
        result = run_robustness(
            spec=spec, engines=("analytical",),
            sigmas=(0.0, 0.2), fault_rates=(0.0, 0.05),
            drift_times=(0.0,), batch=8, mitigate=True)
        assert result.mitigated
        # Two columns inserted BEFORE the reuse marker: row[4] (raw
        # RMSE) and row[-1] (reused) keep their positions.
        for row in result.grid:
            assert len(row) == 9
            assert isinstance(row[4], float) and isinstance(row[6], float)
            assert row[-1] in ("yes", "no")
        faulty = [row for row in result.grid if row[-1] == "no"]
        assert faulty, "the faulty cells must not reuse the clean solve"
        # Calibration must recover part of every faulty cell's error.
        assert all(row[6] < row[4] for row in faulty)
        assert "mitig RMSE" in result.format()

    def test_robustness_rejects_ideal_engine(self):
        from repro.api import get_preset
        from repro.experiments.robustness import run_robustness
        with pytest.raises(ConfigError):
            run_robustness(spec=get_preset("quick-exact"),
                           engines=("ideal",))


class TestSpecDrivenFig5:
    def test_spec_emulator_mode_is_honoured(self, tmp_path, monkeypatch):
        """Regression: a spec with emulator.mode='linear' must train a
        linear-mode emulator (keyed as such in the zoo), not silently
        fall back to full-mode characterisation."""
        import dataclasses
        import os

        from repro.api import get_preset
        from repro.core.zoo import GeniexZoo
        from repro.experiments.common import QUICK
        from repro.experiments.fig5_rmse import run_fig5

        tiny_profile = dataclasses.replace(QUICK, fig5_test_n_g=2,
                                           fig5_test_n_v=3)
        tiny_spec = get_preset("quick").evolve(
            xbar={"rows": 4, "cols": 4},
            emulator={"mode": "linear",
                      "sampling": {"n_g_matrices": 3, "n_v_per_g": 4},
                      "training": {"hidden": 8, "epochs": 2,
                                   "batch_size": 8, "patience": 1}})
        result = run_fig5(profile=tiny_profile, spec=tiny_spec)
        assert len(result.rows) == 2
        zoo = GeniexZoo()
        config = tiny_spec.xbar.to_config().replace(v_supply_v=0.25)
        linear_key = zoo.artifact_key(config, tiny_spec.emulator.sampling,
                                      tiny_spec.emulator.training, "linear")
        full_key = zoo.artifact_key(config, tiny_spec.emulator.sampling,
                                    tiny_spec.emulator.training, "full")
        cached = os.listdir(zoo.cache_dir)
        assert f"geniex-{linear_key}.npz" in cached
        assert f"geniex-{full_key}.npz" not in cached

