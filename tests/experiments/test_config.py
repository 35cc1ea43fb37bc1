import pytest

from repro.experiments.config import APPLIANCE_2012, SCALE_NAMES, ExperimentConfig


class TestPresets:
    def test_default(self):
        c = ExperimentConfig.default()
        assert c.alpha == 0.1
        assert c.disk is APPLIANCE_2012
        assert c.n_backups == 66
        assert c.n_users == 5

    def test_small_is_smaller(self):
        small, default = ExperimentConfig.small(), ExperimentConfig.default()
        assert small.fs_bytes < default.fs_bytes
        assert small.cache_containers < default.cache_containers

    def test_large_is_larger(self):
        large, default = ExperimentConfig.large(), ExperimentConfig.default()
        assert large.fs_bytes > default.fs_bytes

    def test_by_name(self):
        assert ExperimentConfig.by_name("small") == ExperimentConfig.small()
        with pytest.raises(ValueError):
            ExperimentConfig.by_name("huge")

    def test_xlarge_is_largest(self):
        xlarge, large = ExperimentConfig.xlarge(), ExperimentConfig.large()
        assert xlarge.per_user_bytes > large.per_user_bytes
        assert xlarge.fs_bytes > large.fs_bytes
        # the ISSUE floor: >= 10 GB simulated across >= 20 backups,
        # multiple users (logical bytes ~ per_user_bytes x n_backups)
        assert xlarge.per_user_bytes * xlarge.n_backups >= 10 * 10**9
        assert xlarge.n_backups >= 20
        assert xlarge.n_users > 1

    def test_scale_registry_covers_every_preset(self):
        # the single source of truth the CLI choices and the by_name
        # error message both derive from
        for name in SCALE_NAMES:
            assert ExperimentConfig.by_name(name) == getattr(
                ExperimentConfig, name
            )()

    def test_unknown_scale_error_lists_registry(self):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.by_name("huge")
        for name in SCALE_NAMES:
            assert name in str(exc.value)

    def test_cli_choices_derive_from_registry(self):
        import repro.cli as cli
        import inspect

        src = inspect.getsource(cli)
        assert "SCALE_NAMES" in src
        # no hand-maintained duplicate scale list left in the CLI
        assert '"small", "default", "large"' not in src

    def test_with_override(self):
        c = ExperimentConfig.default().with_(alpha=0.25, seed=7)
        assert c.alpha == 0.25
        assert c.seed == 7
        assert c.fs_bytes == ExperimentConfig.default().fs_bytes

    def test_frozen(self):
        with pytest.raises(Exception):
            ExperimentConfig.default().alpha = 0.5  # type: ignore[misc]


class TestBuilders:
    def test_create_resources(self):
        from repro.api import create_resources

        res = create_resources(ExperimentConfig.small())
        assert res.store.seal_seeks == 0
        assert res.disk.profile is APPLIANCE_2012

    def test_create_engine_names(self):
        from repro.api import create_engine
        from repro.core.defrag import DeFragEngine
        from repro.dedup.ddfs import DDFSEngine
        from repro.dedup.exact import ExactEngine
        from repro.dedup.silo import SiLoEngine

        cfg = ExperimentConfig.small()
        assert isinstance(create_engine("DDFS-Like", cfg), DDFSEngine)
        assert isinstance(create_engine("SiLo-Like", cfg), SiLoEngine)
        assert isinstance(create_engine("DeFrag", cfg), DeFragEngine)
        assert isinstance(create_engine("Exact", cfg), ExactEngine)
        with pytest.raises(ValueError):
            create_engine("nope", cfg)

    def test_defrag_alpha_wired(self):
        from repro.api import create_engine

        eng = create_engine("DeFrag", ExperimentConfig.small().with_(alpha=0.33))
        assert eng.policy.alpha == 0.33


class TestValidation:
    """Out-of-range knobs fail at construction with one line, for API
    callers as for the CLI."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", -0.01, r"alpha must be in \[0, 1\]"),
            ("alpha", 1.5, r"alpha must be in \[0, 1\]"),
            ("restore_faa_window", -1, "restore_faa_window must be >= 0"),
            ("bloom_fp_rate", 0.0, r"bloom_fp_rate must be in \(0, 1\)"),
            ("bloom_fp_rate", 1.0, r"bloom_fp_rate must be in \(0, 1\)"),
            ("n_users", 0, "n_users must be >= 1"),
            ("n_backups", 0, "n_backups must be >= 1"),
            ("n_generations", 0, "n_generations must be >= 1"),
            ("container_bytes", 0, "container_bytes must be >= 1"),
            ("cache_containers", 0, "cache_containers must be >= 1"),
            ("restore_cache_containers", 0, "restore_cache_containers must be >= 1"),
            ("bloom_capacity", 0, "bloom_capacity must be >= 1"),
        ],
    )
    def test_rejects_out_of_range(self, field, value, message):
        with pytest.raises(ValueError, match=message) as exc:
            ExperimentConfig(**{field: value})
        assert "\n" not in str(exc.value)
        # with_ goes through the same check
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.small().with_(**{field: value})

    def test_boundary_values_accepted(self):
        ExperimentConfig(
            alpha=0.0, restore_faa_window=0, prefetch_ahead=0, index_page_cache_pages=0
        )
        ExperimentConfig(alpha=1.0, n_users=1, n_backups=1, bloom_capacity=1)

    @pytest.mark.parametrize("name", SCALE_NAMES)
    def test_every_preset_is_valid(self, name):
        ExperimentConfig.by_name(name)
