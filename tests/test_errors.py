"""The unified exception hierarchy (repro.errors) and its re-homing."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.coherence.checker
import repro.errors as errors
import repro.sim.kernel
import repro.system
from repro import api


class TestAliases:
    """The pre-existing homes must re-export the *same* classes, so code
    written against either location catches the other's raises."""

    def test_system_deadlock_alias(self):
        assert repro.system.DeadlockError is errors.DeadlockError

    def test_kernel_simulation_alias(self):
        assert repro.sim.kernel.SimulationError is errors.SimulationError

    def test_checker_violation_alias(self):
        assert (repro.coherence.checker.ProtocolViolation
                is errors.ProtocolViolation)

    def test_top_level_deadlock_alias(self):
        assert repro.DeadlockError is errors.DeadlockError


class TestHierarchy:
    def test_everything_is_a_reproerror(self):
        for cls in (errors.SimulationError, errors.DeadlockError,
                    errors.LivelockDetected, errors.ProtocolViolation,
                    errors.RunTimeout, errors.ExecutorError):
            assert issubclass(cls, errors.ReproError)

    def test_legacy_secondary_bases(self):
        # historical raisers used RuntimeError / AssertionError; callers
        # catching those base classes must keep working
        assert issubclass(errors.SimulationError, RuntimeError)
        assert issubclass(errors.DeadlockError, RuntimeError)
        assert issubclass(errors.ProtocolViolation, AssertionError)

    def test_one_except_clause_catches_the_lot(self):
        with pytest.raises(errors.ReproError):
            raise errors.LivelockDetected("spinning")
        with pytest.raises(errors.ReproError):
            raise errors.RunTimeout("too slow")


class TestStructuredFields:
    def test_livelock_fields(self):
        err = errors.LivelockDetected(
            "frozen", cycle=40_000, window=10_000,
            stalled_threads=(1, 2, 3), locks={0: 7},
        )
        assert err.cycle == 40_000
        assert err.window == 10_000
        assert err.stalled_threads == (1, 2, 3)
        assert err.locks == {0: 7}

    def test_run_timeout_fields(self):
        err = errors.RunTimeout("budget", timeout_s=1.5, cycle=123)
        assert err.timeout_s == 1.5 and err.cycle == 123

    def test_executor_error_fields(self):
        err = errors.ExecutorError(
            "worker died", fingerprint="ab" * 32,
            spec_label="vips[...]", worker_traceback="Traceback ...",
        )
        assert err.fingerprint == "ab" * 32
        assert err.spec_label == "vips[...]"
        assert err.worker_traceback.startswith("Traceback")


class TestPickling:
    """Pool workers ship these across process boundaries."""

    @pytest.mark.parametrize("err", [
        errors.DeadlockError("stuck at cycle 9"),
        errors.LivelockDetected("frozen", cycle=7, window=5,
                                stalled_threads=(0, 1), locks={0: 2}),
        errors.RunTimeout("budget", timeout_s=0.5, cycle=99),
        errors.ExecutorError("boom", fingerprint="f" * 64,
                             spec_label="x", worker_traceback="tb"),
        errors.ProtocolViolation("two owners for line 0x40"),
    ])
    def test_round_trip_preserves_everything(self, err):
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is type(err)
        assert str(clone) == str(err)
        assert clone.__dict__ == err.__dict__


class TestFacadeExports:
    def test_api_reexports_the_hierarchy(self):
        for name in ("ReproError", "SimulationError", "DeadlockError",
                     "LivelockDetected", "ProtocolViolation", "RunTimeout",
                     "ExecutorError"):
            assert getattr(api, name) is getattr(errors, name)
            assert name in api.__all__
            assert getattr(repro, name) is getattr(errors, name)

    def test_api_exposes_the_module(self):
        assert api.errors is errors

    def test_api_import_leaves_numpy_out(self):
        # a fresh interpreter, so modules other tests imported cannot
        # mask (or cause) the import
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.api; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert probe.returncode == 0, probe.stderr[-2000:]
        assert probe.stdout.strip() == "False"
