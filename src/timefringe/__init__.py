"""timefringe: simulator and analysis toolkit for matter-wave interference
in time, comparing standard, time-shift (Floquet-type), and covariant
(Stueckelberg-type) propagation of two-time-gate wave packets."""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, IoError, NoFringes,
                     OverlapWarning, ResolutionError)
from .estimates import (EstimateReport, compare_estimates,
                        crude_nonrelativistic_product, stueckelberg_product)
from .experiments import (DESK_SCALE, FringeReport, IntensityTrace,
                          TwoGateConfig, TwoGateOutcome, extract_fringes,
                          two_gate_run, visibility_scan)
from .packets import (GaussianSpatialPacket, Grid1D, Grid2D,
                      SpacetimePacket, TimeGate)
from .propagation import (CLOSED_FORM, FLOQUET, QUADRATURE, SCHRODINGER,
                          STUECKELBERG, HamiltonDiagnostics,
                          PropagationResult, hamilton_diagnostics,
                          propagate_floquet, propagate_schrodinger,
                          propagate_stueckelberg)
from .scenario import Scenario, parse_scenario, scenario_from_dict
from .units import (PhysicalSetup, kinetic_from_photons,
                    momentum_from_kinetic, photon_energy)
