"""timefringe: simulator and analysis toolkit for matter-wave interference
in time, comparing standard, time-shift (Floquet-type), and covariant
(Stueckelberg-type) propagation of two-time-gate wave packets."""

__version__ = "0.1.0"
