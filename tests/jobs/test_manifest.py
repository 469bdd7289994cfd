"""Manifest parsing: defaults, path resolution, validation errors."""

import json

import pytest

from repro.jobs import ManifestError, load_manifest, manifest_from_dict


def test_defaults_merge_and_id_assignment(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "defaults": {"k": 8, "timeout": 42, "retries": 3},
                "jobs": [
                    {"type": "verify", "spec": "a.v", "impl": "b.v"},
                    {"id": "named", "type": "abstract", "netlist": "a.v", "k": 4},
                ],
            }
        )
    )
    manifest = load_manifest(str(path))
    assert len(manifest) == 2
    first, second = manifest.jobs
    assert first.id == "job000"
    assert first.params["k"] == 8
    assert first.timeout == 42.0
    assert first.retries == 3
    assert second.id == "named"
    assert second.params["k"] == 4  # job field wins over default


def test_relative_paths_resolve_against_manifest_dir(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    path = sub / "m.json"
    path.write_text(
        json.dumps(
            {"jobs": [{"type": "verify", "spec": "s.v", "impl": "/abs/i.v", "k": 4}]}
        )
    )
    manifest = load_manifest(str(path))
    job = manifest.jobs[0]
    assert job.params["spec"] == str(sub / "s.v")
    assert job.params["impl"] == "/abs/i.v"


def test_shared_defaults_do_not_poison_other_types():
    # A field like "k" is meaningless for sleep jobs; the default must not
    # trip their validation.
    manifest = manifest_from_dict(
        {
            "defaults": {"k": 8, "case2": "groebner"},
            "jobs": [
                {"type": "sleep", "seconds": 0.1},
                {"type": "abstract", "netlist": "a.v"},
            ],
        }
    )
    assert "k" not in manifest.jobs[0].params
    assert manifest.jobs[1].params["case2"] == "groebner"


@pytest.mark.parametrize(
    "jobs, fragment",
    [
        ([{"type": "nope"}], "unknown type"),
        ([{"type": "verify", "spec": "a.v", "k": 4}], "missing required field 'impl'"),
        ([{"type": "abstract", "netlist": "a.v", "k": 4, "bogus": 1}], "unknown field"),
        (
            [
                {"id": "x", "type": "sleep", "seconds": 1},
                {"id": "x", "type": "sleep", "seconds": 1},
            ],
            "duplicate job id",
        ),
        ([], "non-empty"),
    ],
)
def test_validation_errors(jobs, fragment):
    with pytest.raises(ManifestError, match=fragment):
        manifest_from_dict({"jobs": jobs})


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_manifest(str(bad))


def test_verify_job_with_jobs_field_is_rejected():
    # "jobs" once asked for cone-parallel abstraction inside a job; that
    # path is gone, so an old manifest fails loudly instead of silently
    # running serial.
    with pytest.raises(ManifestError, match="unknown field.*jobs"):
        manifest_from_dict(
            {
                "jobs": [
                    {"type": "verify", "spec": "a.v", "impl": "b.v", "k": 4, "jobs": 2}
                ]
            }
        )
