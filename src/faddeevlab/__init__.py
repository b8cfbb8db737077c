"""Simulation and verification laboratory for the equivariant Faddeev model
in its lifted radial form: evolve the 4D semilinear chart v, reconstruct the
azimuthal angle u and the integrated field Phi, and certify the algebraic
identities, conservation laws, and continuation monitors numerically.
"""

from .kernels import (KernelParams, CutoffProfile, DEFAULT_PARAMS,
                      DEFAULT_PROFILE, eval_Ftilde, eval_cutoff,
                      eval_N, eval_F_rhs, laplacian_phi_2d)
from .grid import (RadialGrid, FieldState, d_r, laplacian, integrate_radial,
                   sobolev_norm, fill_ghosts)
from .transform import (u_to_v, v_to_u, compute_Phi, compute_Phi_t,
                        residual_v_equation, residual_Phi_wave,
                        residual_Phi_t_wave, residual_Phi_tt_wave,
                        residual_Phi_ttt_wave)
from .diagnostics import (energy, energy_drift, continuation_monitor,
                          decay_report, SpacetimeTracker,
                          write_diagnostics_csv, peaks)
from .evolve import (InitialDataSpec, SpongeSpec, RunConfig, RunResult,
                     make_grid, initial_state, sponge_sigma, trajectory, run,
                     evolve_bundles, detect_blowup,
                     config_fingerprint, write_checkpoint)
from .verify import (ManufacturedSolution, manufactured_initial_state,
                     manufactured_config, make_forcing, solution_error,
                     convergence_study, kernel_series_oracle, kernel_limit,
                     StudyResult)

__version__ = "0.1.0"
