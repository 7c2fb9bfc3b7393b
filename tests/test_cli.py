import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_characterize_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.rows == 32 and args.vdd == 0.25

    def test_crossbar_overrides(self):
        args = build_parser().parse_args(
            ["characterize", "--rows", "8", "--r-on", "50000",
             "--onoff", "2", "--vdd", "0.5"])
        assert (args.rows, args.r_on, args.onoff, args.vdd) == \
            (8, 50000.0, 2.0, 0.5)

    def test_fig_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "fig99"])


class TestCommands:
    def test_characterize_runs(self, capsys):
        code = main(["characterize", "--rows", "6", "--samples", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "NF over" in out and "6x6" in out

    def test_fig_table1_runs(self, capsys):
        assert main(["fig", "table1"]) == 0
        assert "this reproduction" in capsys.readouterr().out

    def test_train_geniex_tiny(self, capsys):
        code = main(["train-geniex", "--rows", "4", "--samples", "4",
                     "--hidden", "8", "--layers", "1", "--epochs", "3"])
        assert code == 0
        assert "emulator ready: 4x4" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8000
        assert args.max_batch == 64 and args.flush_deadline_ms == 2.0
        assert args.max_queue == 4096 and args.workers == 1
        assert args.func.__name__ == "_cmd_serve"

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-batch", "32",
             "--flush-deadline-ms", "0.5", "--max-queue", "128",
             "--tile-cache", "0", "--cache-dir", "/tmp/zoo"])
        assert (args.port, args.max_batch, args.flush_deadline_ms,
                args.max_queue, args.tile_cache, args.cache_dir) == \
            (0, 32, 0.5, 128, 0, "/tmp/zoo")


class TestSpecCommand:
    def test_spec_list(self, capsys):
        assert main(["spec", "--list"]) == 0
        out = capsys.readouterr().out
        assert "quick" in out and "paper-64x64" in out

    def test_spec_preset_prints_json(self, capsys):
        import json

        assert main(["spec", "--preset", "quick"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "geniex"
        assert payload["xbar"]["rows"] == 16

    def test_spec_set_overrides_and_output_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "spec.json"
        assert main(["spec", "--preset", "quick", "--set", "xbar.rows=8",
                     "--set", "engine=exact", "-o", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["xbar"]["rows"] == 8 and payload["engine"] == "exact"
        # the written file round-trips through --spec
        assert main(["spec", "--spec", str(out), "--keys"]) == 0
        keys = json.loads(capsys.readouterr().out)
        from repro.api import EmulationSpec

        assert keys["key"] == EmulationSpec.from_json(
            out.read_text()).key()

    def test_spec_and_preset_are_exclusive(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="not both"):
            main(["spec", "--preset", "quick", "--spec", "x.json"])

    def test_set_requires_a_base_spec(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="--set requires"):
            main(["characterize", "--set", "xbar.rows=4"])

    def test_malformed_set_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="PATH=VALUE"):
            main(["spec", "--preset", "quick", "--set", "xbar.rows"])

    def test_set_nonideality_overrides(self, capsys):
        import json

        assert main(["spec", "--preset", "quick-exact",
                     "--set", "nonideality.variation.sigma=0.1",
                     "--set", "nonideality.stuck.p_on=0.02",
                     "--set", "nonideality.seed=7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        node = payload["nonideality"]
        assert node["variation"]["sigma"] == 0.1
        assert node["stuck"]["p_on"] == 0.02 and node["seed"] == 7
        # The faulty spec keys apart from the clean preset.
        from repro.api import EmulationSpec, get_preset

        assert EmulationSpec.from_dict(payload).key() != \
            get_preset("quick-exact").key()

    def test_set_invalid_nonideality_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="nonideality"):
            main(["spec", "--preset", "quick",
                  "--set", "nonideality.variation.sigma=-1"])

    def test_fig_robustness_listed(self):
        args = build_parser().parse_args(["fig", "robustness"])
        assert args.name == "robustness"

    def test_mitigate_parses_and_defaults(self):
        args = build_parser().parse_args(
            ["mitigate", "--preset", "quick-mitigated",
             "--dataset", "blobs", "--hidden", "16", "8"])
        assert args.preset == "quick-mitigated"
        assert args.hidden == [16, 8] and args.model_seed == 0
        assert not args.no_baseline

    def test_mitigate_requires_a_spec(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="--spec or --preset"):
            main(["mitigate", "--dataset", "blobs"])

    def test_set_mitigation_flows_into_spec(self, capsys):
        import json

        main(["spec", "--preset", "quick-analytical",
              "--set", "mitigation.noise.epochs=4",
              "--set", "mitigation.calibration.samples=32"])
        payload = json.loads(capsys.readouterr().out)
        node = payload["mitigation"]
        assert node["noise"]["epochs"] == 4
        assert node["calibration"]["samples"] == 32
        from repro.api import EmulationSpec, get_preset

        assert EmulationSpec.from_dict(payload).key() != \
            get_preset("quick-analytical").key()

    def test_train_geniex_warms_the_faulty_key(self, tmp_path, capsys):
        """Pre-training a faulty spec must cache under the key the spec
        resolves to (nonideality-folded), not the clean one."""
        import json

        from repro.api import EmulationSpec

        spec = EmulationSpec.from_dict({
            "xbar": {"rows": 4, "cols": 4},
            "emulator": {"sampling": {"n_g_matrices": 3, "n_v_per_g": 4},
                         "training": {"hidden": 8, "epochs": 2,
                                      "batch_size": 8}},
            "nonideality": {"variation": {"sigma": 0.1}}})
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["train-geniex", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"cache key {spec.model_key()}" in out


class TestSpecDrivenCommands:
    def test_characterize_with_preset_and_flag_override(self, capsys):
        # With a spec baseline, --rows overrides rows only: the preset's
        # cols (16) survives unless --cols is typed too.
        code = main(["characterize", "--preset", "quick-exact",
                     "--rows", "5", "--samples", "2"])
        assert code == 0
        assert "5x16" in capsys.readouterr().out

    def test_characterize_preset_rows_and_cols_override(self, capsys):
        code = main(["characterize", "--preset", "quick-exact",
                     "--rows", "5", "--cols", "5", "--samples", "2"])
        assert code == 0
        assert "5x5" in capsys.readouterr().out

    def test_characterize_flags_unchanged_without_spec(self, capsys):
        # Historical behaviour: loose flags alone still work.
        assert main(["characterize", "--rows", "6", "--samples", "2"]) == 0
        assert "6x6" in capsys.readouterr().out

    def test_fig_rejects_spec_for_unsupported_figure(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="does not take"):
            main(["fig", "table1", "--preset", "quick"])

    def test_train_geniex_with_preset_overrides(self, capsys):
        code = main(["train-geniex", "--preset", "quick",
                     "--set", "xbar.rows=4", "--set", "xbar.cols=4",
                     "--samples", "3", "--hidden", "8", "--epochs", "2"])
        assert code == 0
        assert "emulator ready: 4x4" in capsys.readouterr().out


class TestReviewRegressions:
    def test_evolve_rejects_plain_value_for_spec_node(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="nested spec node"):
            main(["spec", "--preset", "quick", "--set", "xbar=5"])

    def test_spec_keys_honours_output_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "keys.json"
        assert main(["spec", "--preset", "quick", "--keys",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        keys = json.loads(out.read_text())
        assert set(keys) == {"key", "model_key"}
