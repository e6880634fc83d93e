"""Virtual circuit state: the data plane tables of Sec 4.1.

A virtual circuit (VC) is a fixed, directed path between a head-end and a
tail-end node, installed by the signalling protocol.  Each node on the path
holds a :class:`RoutingEntry` — the routing table row listed in Sec 4.1 —
and the QNP keeps per-circuit runtime state next to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class CircuitRole(Enum):
    HEAD = "head"
    INTERMEDIATE = "intermediate"
    TAIL = "tail"


@dataclass
class RoutingEntry:
    """Routing table entry for one circuit at one node (Sec 4.1).

    Contains: (i) next downstream node, (ii) next upstream node, (iii) the
    downstream link-label, (iv) the upstream link-label, (v) the downstream
    link min-fidelity, (vi) the downstream max-LPR, (vii) the circuit
    max-EER — plus the cutoff time distributed by the signalling protocol.
    """

    circuit_id: str
    node: str
    upstream_node: Optional[str]
    downstream_node: Optional[str]
    upstream_link: Optional[str]
    downstream_link: Optional[str]
    upstream_link_label: Optional[str]
    downstream_link_label: Optional[str]
    downstream_min_fidelity: Optional[float]
    downstream_max_lpr: Optional[float]
    circuit_max_eer: float
    #: Cutoff timeout in ns (None disables the mechanism — the Fig 10
    #: baseline and an ablation knob).
    cutoff: Optional[float]
    #: The routing protocol's worst-case end-to-end fidelity estimate.
    estimated_fidelity: float = 0.0
    #: This node's place on the circuit, fixed by which neighbours it has
    #: (set once: the endpoints of an entry never change, and the rules
    #: read it several times per pair).
    role: CircuitRole = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.upstream_node is None and self.downstream_node is None:
            raise ValueError("a circuit needs at least two nodes")
        if self.downstream_node is not None:
            if self.downstream_link is None or self.downstream_link_label is None:
                raise ValueError("downstream side needs a link and a label")
        if self.upstream_node is not None:
            if self.upstream_link is None or self.upstream_link_label is None:
                raise ValueError("upstream side needs a link and a label")
        if self.upstream_node is None:
            self.role = CircuitRole.HEAD
        elif self.downstream_node is None:
            self.role = CircuitRole.TAIL
        else:
            self.role = CircuitRole.INTERMEDIATE
