"""Tests for the population-size lists."""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.exceptions import ConfigurationError
from repro.workloads.populations import parse_size_list, sizes_from_env


class TestPopulationGrids:
    def test_parse_size_list(self):
        assert parse_size_list("100, 200,300") == [100, 200, 300]

    def test_parse_size_list_validation(self):
        with pytest.raises(ConfigurationError):
            parse_size_list("100,abc")
        with pytest.raises(ConfigurationError):
            parse_size_list("")
        with pytest.raises(ConfigurationError):
            parse_size_list("1")

    def test_sizes_from_env_default(self):
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop("REPRO_TEST_SIZES", None)
            assert sizes_from_env("REPRO_TEST_SIZES", [4, 8]) == [4, 8]

    def test_sizes_from_env_override(self):
        with mock.patch.dict(os.environ, {"REPRO_TEST_SIZES": "16,32"}):
            assert sizes_from_env("REPRO_TEST_SIZES", [4, 8]) == [16, 32]
