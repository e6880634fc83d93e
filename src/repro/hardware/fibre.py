"""Optical fibre models (Appendix B).

Links in the lab scenario are 2 m of standard fibre at the NV wavelength
(5 dB/km); the near-term scenario converts photons to telecom wavelength and
spans 25 km at 0.5 dB/km.  A heralded connection places a midpoint station
between the two nodes: photons travel half the link each, the heralding
signal travels back over the other half.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.units import (
    LAB_WAVELENGTH_ATTENUATION_DB_PER_KM,
    TELECOM_ATTENUATION_DB_PER_KM,
    fibre_delay,
    fibre_transmissivity,
)


@dataclass(frozen=True)
class FibreSegment:
    """A stretch of fibre with length and attenuation."""

    length_km: float
    attenuation_db_per_km: float = LAB_WAVELENGTH_ATTENUATION_DB_PER_KM

    def __post_init__(self):
        if self.length_km < 0:
            raise ValueError("fibre length must be non-negative")
        if self.attenuation_db_per_km < 0:
            raise ValueError("attenuation must be non-negative")

    @property
    def transmissivity(self) -> float:
        """Photon survival probability end to end."""
        return fibre_transmissivity(self.length_km, self.attenuation_db_per_km)

    @property
    def delay(self) -> float:
        """One-way propagation delay in ns."""
        return fibre_delay(self.length_km)


@dataclass(frozen=True)
class HeraldedConnection:
    """Two fibre segments meeting at a midpoint heralding station."""

    segment_a: FibreSegment
    segment_b: FibreSegment

    @classmethod
    def symmetric(cls, total_length_km: float,
                  attenuation_db_per_km: float = LAB_WAVELENGTH_ATTENUATION_DB_PER_KM
                  ) -> "HeraldedConnection":
        """Midpoint exactly halfway along a link of the given total length."""
        half = FibreSegment(total_length_km / 2.0, attenuation_db_per_km)
        return cls(half, half)

    @property
    def herald_round_trip(self) -> float:
        """Time from photon emission to the herald arriving back at the
        farther node: photons to the midpoint plus the heralding message
        back over the longer segment."""
        to_midpoint = max(self.segment_a.delay, self.segment_b.delay)
        return 2.0 * to_midpoint

    def lab(total_length_km: float) -> "HeraldedConnection":  # type: ignore[misc]
        """Lab-wavelength symmetric connection (5 dB/km)."""
        return HeraldedConnection.symmetric(
            total_length_km, LAB_WAVELENGTH_ATTENUATION_DB_PER_KM)

    def telecom(total_length_km: float) -> "HeraldedConnection":  # type: ignore[misc]
        """Telecom-converted symmetric connection (0.5 dB/km)."""
        return HeraldedConnection.symmetric(
            total_length_km, TELECOM_ATTENUATION_DB_PER_KM)

    lab = staticmethod(lab)
    telecom = staticmethod(telecom)
