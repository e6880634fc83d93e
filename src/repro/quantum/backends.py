"""Pluggable quantum-state backends (the formalism-selection layer).

NetSquid scales by letting each run pick the cheapest state formalism that
is still faithful for its workload (Kozlowski et al., CoNEXT 2020); this
module is that layer for the reproduction.  A :class:`Backend` turns the
abstract event "the hardware produced an entangled pair" into a concrete
state representation:

* :class:`DensityMatrixBackend` (``"dm"``) — the exact engine of
  :mod:`repro.quantum.states`: joint density matrices, O(4^n) tensor
  contractions, faithful for arbitrary states and operations.
* :class:`BellDiagonalBackend` (``"bell"``) — pairs as 4-vectors of Bell
  weights (:mod:`repro.quantum.bellstate`): O(1) per operation, exact on the
  QNP hot path (Bell-diagonal states under dephasing, depolarizing,
  entanglement swaps and Pauli-basis measurements), a twirled approximation
  for amplitude damping and for the heralded |11⟩ coherences, and automatic
  promotion to the exact engine for anything else.

The knob threads through the whole stack —
``build_chain_network(formalism="bell")``, ``Network(..., formalism=...)``,
``python -m repro <cmd> --formalism bell`` — so every benchmark and example
can run on either representation.  See DESIGN.md for the exact/approximate
boundary and the speedups measured in ``BENCH_*.json``.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

from .bell import BellIndex, bell_diagonal_dm
from .bellstate import BellPairState, create_bell_diagonal_pair
from .qubit import Qubit
from .states import QState


class _DmPairMaker:
    """Pair maker with the two heralded density matrices prebound."""

    __slots__ = ("matrices",)

    def __init__(self, matrices: dict):
        self.matrices = matrices

    def __call__(self, bell_index, name_a="", name_b=""):
        qubit_a = Qubit(name_a)
        qubit_b = Qubit(name_b)
        QState.from_trusted_dm(self.matrices[bell_index], [qubit_a, qubit_b])
        return qubit_a, qubit_b


class _BellPairMaker:
    """Pair maker with the two heralded weight vectors prebound."""

    __slots__ = ("weights",)

    def __init__(self, weights: dict):
        self.weights = weights

    def __call__(self, bell_index, name_a="", name_b=""):
        qubit_a = Qubit(name_a)
        qubit_b = Qubit(name_b)
        BellPairState.from_trusted_weights(self.weights[bell_index],
                                           [qubit_a, qubit_b])
        return qubit_a, qubit_b


class Backend:
    """Strategy object deciding how entangled pairs are represented.

    Subclasses implement :meth:`link_pair_factory` (the link layer's pair
    materialisation — the hottest allocation in the simulator) and
    :meth:`create_pair_from_weights` (tests, analytics, services).
    """

    #: Registry key and CLI spelling.
    name: str = ""
    #: Whether the formalism is exact for arbitrary states and operations.
    exact: bool = True

    def create_pair_from_weights(self, weights: Sequence[float],
                                 name_a: str = "",
                                 name_b: str = "") -> Tuple[Qubit, Qubit]:
        """Materialise a Bell-diagonal pair from explicit weights."""
        raise NotImplementedError

    def link_pair_factory(self, model, alpha: float):
        """A per-``(model, α)`` pair materialiser for the link layer.

        ``alpha`` is fixed for the lifetime of a generation request, so the
        produced state is looked up once per request, not once per
        delivery.  Returns ``make(bell_index, name_a, name_b)``, a picklable
        callable: installed link requests hold it, and engine checkpoints
        pickle installed requests.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class DensityMatrixBackend(Backend):
    """The exact density-matrix formalism (the seed's only engine)."""

    name = "dm"
    exact = True

    def create_pair_from_weights(self, weights, name_a="", name_b=""):
        qubit_a = Qubit(name_a)
        qubit_b = Qubit(name_b)
        QState(bell_diagonal_dm(weights), [qubit_a, qubit_b])
        return qubit_a, qubit_b

    def link_pair_factory(self, model, alpha):
        """Prebind the two heralded density matrices (Ψ±) for this α."""
        matrices = {index: model.produced_dm(alpha, index)
                    for index in (BellIndex.PSI_PLUS, BellIndex.PSI_MINUS)}
        return _DmPairMaker(matrices)


class BellDiagonalBackend(Backend):
    """The fast Bell-diagonal formalism (weights instead of matrices)."""

    name = "bell"
    exact = False

    def create_pair_from_weights(self, weights, name_a="", name_b=""):
        return create_bell_diagonal_pair(weights, name_a, name_b)

    def link_pair_factory(self, model, alpha):
        """Prebind the two heralded weight vectors (Ψ±) for this α."""
        weights = {index: model.produced_weights(alpha, index)
                   for index in (BellIndex.PSI_PLUS, BellIndex.PSI_MINUS)}
        return _BellPairMaker(weights)


_BACKENDS: dict[str, Backend] = {
    backend.name: backend
    for backend in (DensityMatrixBackend(), BellDiagonalBackend())
}

#: Formalism names accepted everywhere a ``formalism=`` knob appears.
FORMALISMS: tuple[str, ...] = tuple(_BACKENDS)

DEFAULT_FORMALISM = "dm"


def get_backend(formalism: Union[str, Backend, None]) -> Backend:
    """Resolve a formalism name (or pass a backend instance through).

    ``None`` resolves to the default exact engine, so call sites can take
    an optional knob without special-casing.
    """
    if formalism is None:
        return _BACKENDS[DEFAULT_FORMALISM]
    if isinstance(formalism, Backend):
        return formalism
    try:
        return _BACKENDS[formalism]
    except KeyError:
        raise ValueError(
            f"unknown state formalism {formalism!r}"
            f" (available: {', '.join(FORMALISMS)})") from None


__all__ = [
    "Backend",
    "DensityMatrixBackend",
    "BellDiagonalBackend",
    "BellPairState",
    "FORMALISMS",
    "DEFAULT_FORMALISM",
    "get_backend",
]
