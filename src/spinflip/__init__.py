"""Thermal magnetic near-field noise and atomic spin-flip lifetimes above
planar vacuum / superconductor / metal multilayers."""

__version__ = "0.1.0"

from .constants import (CONSTANTS, Constants, RB87_CLOCK_TRANSITION,
                        TransitionSpec, rate_prefactor, thermal_photon_number)
from .errors import (ConfigError, DegenerateInterfaceError, DomainError,
                     GrazingSingularityError, QuadratureError,
                     QuasiStaticWarning, ResonanceError, SingularMaterialError,
                     SpinflipError)
from .materials import (BSCCO, COPPER, NIOBIUM, VACUUM, DrudeMetal,
                        IsotropicSuperconductor, MaterialModel,
                        PermittivityTensor, TwoFluidParams,
                        UniaxialSuperconductor, Vacuum, lambda_of_T,
                        material_presets, permittivity, preset, sigma_n_of_T,
                        skin_depth)
from .quadrature import (QuadratureDiagnostics, QuadratureSettings,
                         integrate_semi_infinite)
from .rates import (PATH_CALIBRATION_RATIO, RateResult, SpinOrientation,
                    double_curl_integrand, gamma_anisotropic, gamma_general,
                    gamma_isotropic, spin_flip_rate)
from .stratified import (Layer, LayerStack, StackMedia, fresnel_te, generalized_r_te,
                         interface_rv, layer_wavevectors, media_of,
                         scattering_coefficients, stack_media, te_reflection)
from .sweep import (RunConfig, SweepSpec, SweepTable, emit_csv, load_config,
                    parse_config, run_sweep, screening_factor)

__all__ = [name for name in dir() if not name.startswith("_")]
