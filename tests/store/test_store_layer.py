"""Unit tests for the result-store layer (URL parsing, SQLite, cache dirs)."""

from __future__ import annotations

import json
import math

import pytest

from repro.harness.parallel import build_finite_state_trials, run_trials
from repro.harness.results import RunRecord
from repro.store import (
    CLAIM_ACQUIRED,
    CLAIM_DONE,
    CLAIM_LEASED,
    STORE_KEY_EXCLUDED_FIELDS,
    StoreError,
    StoreSpec,
    open_cache_dir,
    open_store,
    parse_store_url,
)
from repro.store.base import record_to_dict
from repro.store.sqlite import SqliteStore


def make_record(seed: int = 7, interactions: int = 120) -> RunRecord:
    return RunRecord(
        population_size=64,
        seed=seed,
        converged=True,
        convergence_time=4.5,
        extra={"engine": "count", "interactions": interactions},
    )


def legacy_line(key: str, record: RunRecord) -> str:
    """One line of a JSONL cache shard, as earlier versions wrote it."""
    return json.dumps(
        {"key": key, "record": record_to_dict(record)}, sort_keys=True
    )


class TestStoreUrls:
    def test_sqlite_splits_on_the_first_colon(self):
        spec = parse_store_url("sqlite:/data/cache:dir/db.sqlite")
        assert (spec.scheme, spec.location) == ("sqlite", "/data/cache:dir/db.sqlite")
        spec = parse_store_url("sqlite:results.sqlite")
        assert (spec.scheme, spec.location) == ("sqlite", "results.sqlite")

    def test_http_keeps_the_whole_url(self):
        spec = parse_store_url("http://host:8512")
        assert spec.scheme == "http"
        assert spec.location == "http://host:8512"
        assert spec.url() == "http://host:8512"

    @pytest.mark.parametrize("url", ["", "no-scheme", "ftp:/x", "sqlite:"])
    def test_malformed_urls_are_rejected(self, url):
        with pytest.raises(StoreError):
            parse_store_url(url)

    def test_jsonl_urls_point_at_the_cache_dir_and_sqlite(self):
        with pytest.raises(StoreError) as caught:
            parse_store_url("jsonl:/data/cache")
        assert "--cache-dir" in str(caught.value)
        assert "sqlite:" in str(caught.value)

    def test_non_positive_lease_is_rejected(self):
        with pytest.raises(StoreError):
            StoreSpec(scheme="sqlite", location="x", lease_seconds=0.0)

    @pytest.mark.parametrize("lease", [math.nan, math.inf])
    def test_a_lease_that_is_not_finite_is_rejected_before_any_file(
        self, lease, tmp_path
    ):
        with pytest.raises(StoreError, match="positive and finite"):
            parse_store_url(f"sqlite:{tmp_path / 'db.sqlite'}", lease_seconds=lease)
        (tmp_path / "sweep.sqlite").write_text("kept")
        with pytest.raises(StoreError, match="positive and finite"):
            open_cache_dir(tmp_path, "sweep", resume=False, lease_seconds=lease)
        assert [path.name for path in tmp_path.iterdir()] == ["sweep.sqlite"]
        assert (tmp_path / "sweep.sqlite").read_text() == "kept"

    def test_open_store_dispatches_by_scheme(self, tmp_path):
        sqlite = open_store(f"sqlite:{tmp_path / 'db.sqlite'}")
        assert isinstance(sqlite, SqliteStore)
        # An already-open store passes through untouched.
        assert open_store(sqlite) is sqlite
        sqlite.close()

    def test_store_spec_fields_match_the_audit_list(self):
        import dataclasses

        assert {f.name for f in dataclasses.fields(StoreSpec)} == set(
            STORE_KEY_EXCLUDED_FIELDS
        )


class TestInMemoryStore:
    def test_writes_no_file(self, tmp_path, monkeypatch, records_equal):
        monkeypatch.chdir(tmp_path)
        store = open_store("sqlite::memory:")
        store.append("k", make_record())
        assert records_equal(store.get("k"), make_record())
        assert store.describe() == "sqlite::memory:"
        store.close()
        assert list(tmp_path.iterdir()) == []

    def test_a_storeless_sweep_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        specs = build_finite_state_trials(
            [40], 2, protocol="epidemic", engine="count", base_seed=3
        )
        assert run_trials(specs).executed == 2
        assert list(tmp_path.iterdir()) == []


class TestCacheDir:
    def test_reopens_its_own_file(self, tmp_path, records_equal):
        # Records appended through one store are visible to the next one
        # opened on the same directory and name.
        with open_cache_dir(tmp_path, "sweep") as store:
            store.append("k1", make_record(seed=1))
        assert [path.name for path in tmp_path.iterdir()] == ["sweep.sqlite"]
        with open_cache_dir(tmp_path, "sweep") as store:
            assert records_equal(store.get("k1"), make_record(seed=1))
            store.append("k2", make_record(seed=2))
        with open_cache_dir(tmp_path, "sweep") as store:
            assert records_equal(store.get("k2"), make_record(seed=2))
        with open_cache_dir(tmp_path, "other") as store:
            assert store.get("k1") is None

    def test_imports_a_legacy_shard_less_its_torn_last_line(
        self, tmp_path, records_equal
    ):
        lines = [legacy_line(f"k{seed}", make_record(seed=seed)) for seed in (1, 2, 3)]
        (tmp_path / "sweep.jsonl").write_text(
            lines[0] + "\n" + lines[1] + "\n" + lines[2][: len(lines[2]) // 2],
            encoding="utf-8",
        )
        with open_cache_dir(tmp_path, "sweep") as store:
            assert store.status().completed == 2
            assert records_equal(store.get("k2"), make_record(seed=2))
            assert store.get("k3") is None
        # The shard stays, and is imported only into an empty cache.
        assert (tmp_path / "sweep.jsonl").exists()
        with open_cache_dir(tmp_path, "sweep") as store:
            assert store.import_jsonl(tmp_path / "sweep.jsonl") == 0
            assert store.status().completed == 2

    def test_without_resume_the_cache_and_the_shard_go(self, tmp_path):
        with open_cache_dir(tmp_path, "sweep") as store:
            store.append("k1", make_record(seed=1))
        (tmp_path / "sweep.jsonl").write_text(
            legacy_line("k2", make_record(seed=2)) + "\n", encoding="utf-8"
        )
        with open_cache_dir(tmp_path, "sweep", resume=False) as store:
            assert store.status().completed == 0
        assert [path.name for path in tmp_path.iterdir()] == ["sweep.sqlite"]

    def test_claims_serialise_across_stores_on_one_cache(self, tmp_path, records_equal):
        with open_cache_dir(tmp_path, "sweep") as first, open_cache_dir(
            tmp_path, "sweep"
        ) as second:
            assert first.claim("k", owner="a").status == CLAIM_ACQUIRED
            assert second.claim("k", owner="b").status == CLAIM_LEASED
            first.append("k", make_record())
            done = second.claim("k", owner="b")
            assert done.status == CLAIM_DONE
            assert records_equal(done.record, make_record())


class TestSqliteStore:
    def test_round_trip_preserves_records_exactly(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        record = RunRecord(
            population_size=10,
            seed=3,
            converged=False,
            convergence_time=None,
            max_additive_error=math.inf,
            extra={"engine": "vector", "final_estimate_mean": math.nan},
        )
        store.append("k", record)
        loaded = store.get("k")
        # The canonicalisation of record_to_dict: non-finite floats load
        # as NaN (max_additive_error) / None (inside extra).
        assert math.isnan(loaded.max_additive_error)
        assert loaded.extra["final_estimate_mean"] is None
        assert loaded.converged is False and loaded.convergence_time is None
        store.close()

    def test_atomic_claim_done_leased(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        first = store.claim("k", lease=60.0, owner="a")
        assert first.status == CLAIM_ACQUIRED and first.expires is not None
        second = store.claim("k", lease=60.0, owner="b")
        assert second.status == CLAIM_LEASED and second.owner == "a"
        # The holder may re-claim (refresh) its own lease.
        assert store.claim("k", lease=60.0, owner="a").status == CLAIM_ACQUIRED
        store.append("k", make_record())
        assert store.claim("k", owner="b").status == CLAIM_DONE
        store.close()

    @pytest.mark.parametrize("lease", [0.0, -1.0, math.nan, math.inf])
    def test_a_claim_needs_a_positive_finite_lease(self, lease, tmp_path):
        # The HTTP server's /claim reaches this check too.
        store = SqliteStore(tmp_path / "db.sqlite")
        with pytest.raises(StoreError, match="positive and finite"):
            store.claim("k", lease=lease, owner="a")
        assert store.status().leases == ()
        assert store.claim("k", lease=60.0, owner="a").status == CLAIM_ACQUIRED
        store.close()

    @pytest.mark.parametrize("content", [b"not a database\n", b"SQLite format 3\x00"])
    def test_a_file_that_is_not_a_database_is_a_store_error(self, content, tmp_path):
        path = tmp_path / "db.sqlite"
        path.write_bytes(content)
        with pytest.raises(StoreError) as caught:
            SqliteStore(path)
        assert f"cannot open {path} as a SQLite store" in str(caught.value)
        assert path.read_bytes() == content
        assert [entry.name for entry in tmp_path.iterdir()] == ["db.sqlite"]

    def test_expired_lease_is_reclaimed(self, tmp_path):
        import time

        store = SqliteStore(tmp_path / "db.sqlite")
        store.claim("k", lease=0.05, owner="crashed-worker")
        time.sleep(0.1)
        reclaim = store.claim("k", lease=60.0, owner="b")
        assert reclaim.status == CLAIM_ACQUIRED and reclaim.owner == "b"
        store.close()

    def test_release_respects_ownership(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.claim("k", lease=60.0, owner="a")
        store.release("k", owner="b")  # not the holder: no-op
        assert store.claim("k", lease=60.0, owner="c").status == CLAIM_LEASED
        store.release("k", owner="a")
        assert store.claim("k", lease=60.0, owner="c").status == CLAIM_ACQUIRED
        store.close()

    def test_pending_batches_and_preserves_order(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.append("k2", make_record())
        keys = [f"k{i}" for i in range(600)]  # crosses the chunk boundary
        pending = store.pending(keys)
        assert "k2" not in pending
        assert pending == [k for k in keys if k != "k2"]
        store.close()

    def test_status_reports_stale_leases_and_throughput(self, tmp_path):
        import time

        store = SqliteStore(tmp_path / "db.sqlite")
        claim = store.claim("done-key", lease=60.0, owner="a")
        assert claim.status == CLAIM_ACQUIRED
        store.append("done-key", make_record(interactions=500))
        store.claim("stale-key", lease=0.01, owner="dead")
        store.claim("live-key", lease=60.0, owner="alive")
        time.sleep(0.05)
        status = store.status()
        assert (status.completed, status.leased, status.stale) == (1, 1, 1)
        by_key = {entry.key: entry for entry in status.leases}
        assert by_key["stale-key"].stale and not by_key["live-key"].stale
        (workload,) = status.workloads
        # Wall time is derived from the claim that started the trial, so
        # throughput reporting needs no driver-side clock.
        assert workload.interactions == 500 and workload.wall_seconds > 0
        store.close()

    def test_append_is_write_once(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.append("k", make_record(seed=1))
        store.append("k", make_record(seed=2))  # late duplicate: ignored
        assert store.get("k").seed == 1
        assert store.status().completed == 1
        store.close()
