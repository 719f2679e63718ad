"""Concurrent-append safety of one SQLite store file.

Every local sweep claims from SQLite, and any number of drivers may share
one ``--cache-dir`` cache, so many processes append to one database file at
once.  Each append is one ``BEGIN IMMEDIATE`` transaction; this test
hammers one file from many processes and requires every record to survive
byte-exact.
"""

from __future__ import annotations

import json
import multiprocessing

from repro.harness.results import RunRecord
from repro.store import open_cache_dir
from repro.store.base import record_to_dict

WRITERS = 8
RECORDS_PER_WRITER = 200


def _record(writer: int, index: int) -> RunRecord:
    # A long-ish extra payload makes a torn or interleaved write corrupt
    # the record if the append path is not atomic.
    return RunRecord(
        population_size=1000 + writer,
        seed=writer * RECORDS_PER_WRITER + index,
        converged=True,
        convergence_time=float(index),
        extra={"writer": writer, "blob": "x" * 500, "index": index},
    )


def _hammer(directory: str, writer: int) -> None:
    with open_cache_dir(directory, "hammer") as store:
        for index in range(RECORDS_PER_WRITER):
            store.append(f"w{writer}-r{index}", _record(writer, index))


class TestConcurrentAppends:
    def test_multiprocess_hammer_keeps_every_record_byte_exact(
        self, tmp_path, stored_lines
    ):
        open_cache_dir(tmp_path, "hammer").close()  # one schema, up front
        context = multiprocessing.get_context()
        processes = [
            context.Process(target=_hammer, args=(str(tmp_path), writer))
            for writer in range(WRITERS)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        lines = stored_lines(tmp_path / "hammer.sqlite")
        assert sorted(lines) == sorted(
            json.dumps(
                {"key": f"w{writer}-r{index}",
                 "record": record_to_dict(_record(writer, index))},
                sort_keys=True,
            )
            for writer in range(WRITERS)
            for index in range(RECORDS_PER_WRITER)
        )
        # Each writer's records went in in its own order.
        for writer in range(WRITERS):
            indices = [
                json.loads(line)["record"]["extra"]["index"]
                for line in lines
                if json.loads(line)["key"].startswith(f"w{writer}-")
            ]
            assert indices == list(range(RECORDS_PER_WRITER))
