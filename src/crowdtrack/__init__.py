"""Crowd motion model, per-agent particle filters and tracking benchmarks."""

from .rvo import (AgentBody, HalfPlane, OverlappingAgents, RvoParams,
                  VelocitySolution, advance, compute_u, crowd_step,
                  permitted_halfplane, rvo_step, solve_velocity, step_all,
                  vo_contains)
from .motion import AgentState, BodySpec, CrowdContext, NoiseSpec, resolve_model
from .filters import (FilterHistory, HpfConfig, InsufficientHistory,
                      ParticleSet, hpf_predict_j, hpf_step, pf_step,
                      posterior_mean, resample)
from .data import (Frame, ObservationTrace, Scenario, corrupt, make_scenario,
                   parse_trajectories, write_trajectories)
from .bench import (GaussianPositionLikelihood, PredictionReport, TrackOutcome,
                    TrackReport, classify_track, run_prediction_protocol,
                    run_tracking_protocol, sweep)

__version__ = "0.1.0"
