"""Discrete-event simulation kernel: the NetSquid substitute.

Public API:

* :class:`Simulator` — the event loop,
* :class:`Entity` — base class for protocol machines and hardware models,
* :class:`Component` / :class:`Port` / :func:`connect` — the typed port
  graph every wired entity exchanges messages over,
* :class:`ClassicalChannel` — reliable, in-order classical links (inject
  messages through the adapter :func:`subscribe` returns),
* time constants (``NS``, ``US``, ``MS``, ``S``) and fibre helpers.
"""

from .channels import CLASSICAL, ClassicalChannel
from .entity import Entity
from .ports import (
    CallbackComponent,
    Component,
    Port,
    PortAlreadyConnectedError,
    PortError,
    PortNotConnectedError,
    ProtocolMismatchError,
    connect,
    subscribe,
)
from .scheduler import EventHandle, Simulator
from .units import (
    FIBRE_DELAY_NS_PER_KM,
    LAB_WAVELENGTH_ATTENUATION_DB_PER_KM,
    MINUTE,
    MS,
    NS,
    S,
    TELECOM_ATTENUATION_DB_PER_KM,
    US,
    db_to_transmissivity,
    fibre_delay,
    fibre_transmissivity,
)

__all__ = [
    "Simulator",
    "EventHandle",
    "Entity",
    "Port",
    "Component",
    "CallbackComponent",
    "connect",
    "subscribe",
    "PortError",
    "ProtocolMismatchError",
    "PortAlreadyConnectedError",
    "PortNotConnectedError",
    "ClassicalChannel",
    "CLASSICAL",
    "NS",
    "US",
    "MS",
    "S",
    "MINUTE",
    "FIBRE_DELAY_NS_PER_KM",
    "LAB_WAVELENGTH_ATTENUATION_DB_PER_KM",
    "TELECOM_ATTENUATION_DB_PER_KM",
    "fibre_delay",
    "fibre_transmissivity",
    "db_to_transmissivity",
]
