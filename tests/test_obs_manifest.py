"""RunManifest tests: provenance fields, config hashing, serialization."""

import json

import repro
from repro.obs.manifest import RunManifest, build_manifest, config_hash


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_handles_non_json_values(self):
        class Frozen:
            def __repr__(self):
                return "Frozen(x=1)"

        first = config_hash({"cfg": Frozen()})
        second = config_hash({"cfg": Frozen()})
        assert first == second


class TestBuildManifest:
    def test_stamps_the_package_version(self):
        manifest = build_manifest("tenants", seed=7, schemes=("econ-cheap",))
        assert manifest.version == repro.__version__
        assert manifest.command == "tenants"
        assert manifest.seed == 7
        assert manifest.schemes == ("econ-cheap",)

    def test_collects_mode_flags_and_timings(self):
        manifest = build_manifest(
            "tenants", cache_partitions=2,
            placement="hash", planning="batched",
            phase_timings_s={"run": 1.25, "emit_trace": 0.01},
        )
        payload = manifest.to_dict()
        assert "shards" not in payload
        assert payload["cache_partitions"] == 2
        assert payload["planning"] == "batched"
        assert payload["phase_timings_s"] == {"run": 1.25, "emit_trace": 0.01}
        assert payload["manifest_version"] == 1

    def test_extra_fields_merge_into_payload(self):
        manifest = build_manifest("report", extra={"warnings": 3})
        assert manifest.to_dict()["warnings"] == 3

    def test_environment_fields_are_present(self):
        manifest = build_manifest("scenario")
        payload = manifest.to_dict()
        assert payload["python_version"].count(".") == 2
        # Fail-soft fields: present as keys, possibly None.
        assert "git_sha" in payload
        assert "numpy_version" in payload
        # The OS high-water mark, outside the reproducibility contract.
        assert payload["peak_rss_bytes"] > 0

    def test_git_sha_fallback_outside_a_git_repo(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        manifest = build_manifest("tenants")
        assert manifest.git_sha is None
        # The manifest still serializes the key (fail-soft, not absent).
        assert "git_sha" in manifest.to_dict()


class TestSerialization:
    def test_to_json_sorts_keys(self):
        manifest = build_manifest("tenants")
        payload = json.loads(manifest.to_json())
        assert list(payload) == sorted(payload)

    def test_write_emits_valid_json(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        build_manifest("tenants", seed=1).write(str(path))
        payload = json.loads(path.read_text())
        assert payload["command"] == "tenants"
        assert payload["seed"] == 1

    def test_manifest_is_frozen(self):
        manifest = build_manifest("tenants")
        try:
            manifest.command = "other"
        except AttributeError:
            return
        raise AssertionError("RunManifest should be immutable")

    def test_identical_configs_hash_identically(self):
        first = build_manifest("tenants", config={"queries": 60, "seed": 0})
        second = build_manifest("tenants", config={"seed": 0, "queries": 60})
        assert first.config_hash == second.config_hash

    def test_dataclass_direct_construction(self):
        manifest = RunManifest(
            version="0.0.0", command="x", seed=None, config_hash="00",
            schemes=(), python_version="3.11.0", platform="linux",
            numpy_version=None, git_sha=None,
        )
        assert manifest.to_dict()["placement"] == "hash"
