"""timefringe: simulator and analysis toolkit for matter-wave interference
in time, comparing standard, time-shift (Floquet-type), and covariant
(Stueckelberg-type) propagation of two-time-gate wave packets."""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, IoError, NoFringes,
                     OverlapWarning, ResolutionError, SingularKernel)
from .estimates import (EstimateReport, compare_estimates,
                        crude_nonrelativistic_product, stueckelberg_product)
from .experiments import (DESK_SCALE, FringeReport, IntensityTrace,
                          TwoGateConfig, TwoGateOutcome, extract_fringes,
                          two_gate_run, visibility_scan)
from .kernels import (FloquetKernelSample, floquet_kernel,
                      kernel_identity_limit, schrodinger_kernel,
                      stueckelberg_kernel)
from .packets import (GaussianSpatialPacket, Grid1D, Grid2D, Moments,
                      SpacetimePacket, TimeGate, evaluate_packet,
                      expectations, norm2, packet_on_grid)
from .propagation import (CLOSED_FORM, FLOQUET, QUADRATURE, SCHRODINGER,
                          STUECKELBERG, HamiltonDiagnostics,
                          PropagationResult, hamilton_diagnostics,
                          propagate_floquet, propagate_schrodinger,
                          propagate_stueckelberg)
from .scenario import Scenario, parse_scenario, scenario_from_dict
from .units import (PhysicalConstants, PhysicalSetup, UnitScales,
                    from_internal, kinetic_from_photons,
                    momentum_from_kinetic, photon_energy, to_internal)
