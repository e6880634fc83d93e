"""Guards for the lean cold start.

Three things keep a fresh process cheap before its first pair:

* no module of ``repro`` imports scipy (18 MB RSS and ~0.3 s per process)
  or networkx (18 MB RSS and ~0.1 s per process);
* the route solve's swap kernel is real, so the solve never takes the
  BLAS's multi-threaded complex mat-vec path;
* superoperators and merged states come from one broadcast product instead
  of a chain of ``np.kron`` calls, with bit-identical values.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    CNOT,
    CZ,
    H,
    S,
    SWAP_GATE,
    T,
    X,
    Y,
    Z,
    NoisyOpParams,
    QState,
    Qubit,
    decoherence_kraus,
    depolarizing_kraus,
    two_qubit_depolarizing_kraus,
)
from repro.quantum.gates import superoperator
from repro.quantum.operations import _swap_kernel

SRC = Path(__file__).resolve().parent.parent / "src"

NO_SCIPY_SCRIPT = """
import sys

import repro, repro.apps, repro.campaign, repro.cli, repro.traffic
from repro.traffic import TrafficEngine, build_topology

net = build_topology("grid", 3, seed=7, formalism="dm")
report = TrafficEngine(net, circuits=2, load=0.5, seed=7).run(
    horizon_s=0.2, drain_s=0.2)
assert report.total_confirmed_pairs > 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("scipy", "networkx")))
"""


def test_no_scipy_in_the_process():
    """Importing the package surfaces and running a 2-circuit grid scenario
    loads no scipy or networkx module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "[]"


_ops = st.builds(
    NoisyOpParams,
    two_qubit_gate_fidelity=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    single_qubit_gate_fidelity=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    readout_error0=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    readout_error1=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_swap_kernel_is_real(ops):
    kernel = _swap_kernel(ops)
    assert kernel.dtype == np.float64
    assert kernel.shape == (256, 16)
    assert not kernel.flags.writeable


def reference_superoperator(*ops):
    """The ``Σ K ⊗ K*`` sum built one ``np.kron`` at a time, in Kraus order."""
    return sum(np.kron(op, op.conj()) for op in ops)


def _bit_equal(actual, expected):
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


#: (seed, dim, count): 1–6 random complex operators of dimension 2 or 4.
_operator_sets = st.tuples(st.integers(0, 2 ** 32 - 1), st.sampled_from((2, 4)),
                           st.integers(1, 6))


def _random_operators(seed, dim, count):
    rng = np.random.default_rng(seed)
    shape = (count, dim, dim)
    return list(rng.normal(size=shape) + 1j * rng.normal(size=shape))


@settings(max_examples=200, deadline=None)
@given(_operator_sets)
def test_superoperator_is_bit_equal_to_kron_reference(operator_set):
    ops = _random_operators(*operator_set)
    assert _bit_equal(superoperator(*ops), reference_superoperator(*ops))


def test_superoperator_of_package_gates_and_channels_is_bit_equal():
    """Fixed gates carry exact zeros and ±1/√2 entries, whose products
    include signed zeros: those must match the reference bit for bit too."""
    channels = [[gate] for gate in (CNOT, CZ, H, S, SWAP_GATE, T, X, Y, Z)]
    channels += [list(decoherence_kraus(1e6, 1e9, 1e8)),
                 list(depolarizing_kraus(0.1)),
                 list(two_qubit_depolarizing_kraus(0.1))]
    for ops in channels:
        assert _bit_equal(superoperator(*ops), reference_superoperator(*ops))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_merge_is_bit_equal_to_kron(seed, qubits_a, qubits_b):
    rng = np.random.default_rng(seed)

    def random_state(n):
        dim = 2 ** n
        matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return QState(matrix, [Qubit() for _ in range(n)])

    state_a, state_b = random_state(qubits_a), random_state(qubits_b)
    expected = np.kron(state_a.dm, state_b.dm)
    assert _bit_equal(QState.merge(state_a, state_b).dm, expected)
