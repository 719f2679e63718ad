"""The backend registry, environment default and graceful-fallback contract.

These tests pin the seam's behavioural guarantees rather than any kernel's
numerics: numpy-only installs must stay fully functional (selecting an
unavailable backend warns and falls back), the ``REPRO_BACKEND`` environment
variable supplies a process-wide default, and a partial backend — one that
overrides a single kernel — transparently inherits the reference
implementations for everything else.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ENV_BACKEND,
    ArrayBackend,
    BACKEND_REGISTRY,
    backend_availability,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backend import numpy_backend
from repro.backend.native_backend import NativeBackend
from repro.backend.numpy_backend import NumpyBatchedKernel
from repro.core.array_simulator import LogSizeVectorProtocol
from repro.core.parameters import ProtocolParameters
from repro.engine.batched_simulator import BatchedCountSimulator
from repro.engine.selection import build_engine
from repro.exceptions import SimulationError
from repro.protocols.epidemic import EpidemicProtocol


class TestRegistry:
    def test_shipped_backends_are_registered(self):
        assert BACKEND_NAMES == ("numpy", "native")

    def test_numpy_backend_is_always_available(self):
        assert backend_availability()["numpy"] is None

    def test_availability_report_covers_every_backend(self):
        report = backend_availability()
        assert set(report) == set(BACKEND_NAMES)
        for name, reason in report.items():
            assert reason is None or isinstance(reason, str), name

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="unknown backend 'warp'"):
            get_backend("warp")
        with pytest.raises(SimulationError, match="unknown backend"):
            resolve_backend("warp")

    def test_numba_is_not_a_backend(self):
        # Naming numba is an error, not a warn-and-fall-back to numpy.
        with pytest.raises(SimulationError, match="unknown backend 'numba'"):
            get_backend("numba")
        with pytest.raises(SimulationError, match="unknown backend 'numba'"):
            resolve_backend("numba")

    def test_get_backend_memoises(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_registering_a_nameless_backend_is_rejected(self):
        with pytest.raises(SimulationError, match="non-empty name"):
            register_backend(type("Anonymous", (ArrayBackend,), {}))

    def test_describe_is_a_one_liner(self):
        for name in BACKEND_NAMES:
            description = get_backend(name).describe()
            assert description and "\n" not in description, name


class TestResolution:
    def test_none_resolves_to_the_default(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_environment_variable_sets_the_default(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_empty_environment_variable_is_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "")
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_unknown_environment_backend_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "warp")
        with pytest.raises(SimulationError, match="unknown backend"):
            resolve_backend(None)

    def test_numba_environment_backend_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "numba")
        with pytest.raises(SimulationError, match="unknown backend 'numba'"):
            resolve_backend(None)

    def test_instances_pass_through_unchanged(self):
        instance = get_backend("numpy")
        assert resolve_backend(instance) is instance

    def test_non_string_choice_is_rejected(self):
        with pytest.raises(SimulationError, match="name or ArrayBackend"):
            resolve_backend(42)  # type: ignore[arg-type]

    def test_environment_default_reaches_the_engines(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "numpy")
        simulator = BatchedCountSimulator(EpidemicProtocol(), 64, seed=0)
        assert simulator.backend.name == "numpy"


class TestGracefulFallback:
    @pytest.fixture()
    def broken_backend(self):
        @register_backend
        class BrokenBackend(ArrayBackend):
            name = "broken-for-test"

            @classmethod
            def available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "deliberately broken by the test"

        yield BrokenBackend
        BACKEND_REGISTRY.pop("broken-for-test", None)

    def test_unavailable_backend_warns_and_falls_back(self, broken_backend):
        with pytest.warns(UserWarning, match="deliberately broken"):
            resolved = resolve_backend("broken-for-test")
        assert resolved.name == DEFAULT_BACKEND

    def test_engine_built_on_unavailable_backend_runs_on_numpy(
        self, broken_backend
    ):
        with pytest.warns(UserWarning, match="falling back to the numpy"):
            simulator = BatchedCountSimulator(
                EpidemicProtocol(), 64, seed=0, backend="broken-for-test"
            )
        assert simulator.backend.name == "numpy"
        simulator.run_interactions(200)
        assert simulator.interactions == 200


class TestPartialBackendComposition:
    def test_bare_subclass_inherits_every_reference_kernel(self):
        class Bare(ArrayBackend):
            name = "bare"

        backend = Bare()
        kernel = backend.batched_kernel(
            BatchedCountSimulator(EpidemicProtocol(), 32, seed=0).table,
            None,
            32,
            8,
        )
        assert isinstance(kernel, NumpyBatchedKernel)
        receivers, senders = backend.draw_matching_arrays(
            10, np.random.default_rng(1)
        )
        assert receivers.size == senders.size == 5
        assert backend.log_size_round_kernel(
            LogSizeVectorProtocol(ProtocolParameters.fast_test())
        ) is None

    def test_pair_weights_reference(self):
        counts = np.array([3, 2, 0])
        uniform = numpy_backend.pair_weight_matrix(counts, None)
        assert uniform[0, 1] == 6 and uniform[0, 0] == 6 and uniform[2, 2] == 0
        rates = np.array([1.0, 0.5, 1.0])
        weighted = numpy_backend.pair_weight_matrix(counts, rates)
        assert weighted[0, 1] == 3.0 and weighted[1, 1] == 0.5

    def test_every_kernel_has_a_native_version(self):
        # The seam holds only kernels with a compiled version; a hot loop
        # with a single implementation belongs in the engine that runs it.
        kernels = {
            name
            for name, value in vars(ArrayBackend).items()
            if inspect.isfunction(value) and not name.startswith("_")
        } - {"describe"}
        assert kernels
        assert sorted(kernels - set(vars(NativeBackend))) == []


class TestEngineBackendThreading:
    @pytest.mark.parametrize("engine", ["agent", "count"])
    def test_reference_engines_warn_and_ignore_non_numpy_backends(self, engine):
        with pytest.warns(UserWarning, match="per-interaction reference"):
            simulator = build_engine(
                engine, EpidemicProtocol(), 64, seed=0, backend="native"
            )
        simulator.run_interactions(64)
        assert simulator.interactions == 64

    @pytest.mark.parametrize("engine", ["agent", "count"])
    def test_reference_engines_accept_numpy_silently(self, engine, recwarn):
        build_engine(engine, EpidemicProtocol(), 64, seed=0, backend="numpy")
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_batched_and_vector_record_their_backend(self):
        batched = build_engine(
            "batched", EpidemicProtocol(), 64, seed=0, backend="numpy"
        )
        vector = build_engine(
            "vector", EpidemicProtocol(), 64, seed=0, backend="numpy"
        )
        assert batched.backend.name == "numpy"
        assert vector.backend.name == "numpy"
