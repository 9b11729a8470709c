"""Crowd motion model, per-agent particle filters and tracking benchmarks."""

from .rvo import (AgentBody, HalfPlane, RvoParams, VelocitySolution,
                  crowd_step, rvo_step, solve_velocity, step_all)
from .motion import AgentState, BodySpec, CrowdContext, NoiseSpec, resolve_model
from .filters import (FilterHistory, HpfConfig, InsufficientHistory,
                      ParticleSet, hpf_step, pf_step,
                      posterior_mean, resample)
from .data import (Frame, Scenario, Trace, corrupt, make_scenario,
                   parse_trajectories, write_trajectories)
from .bench import (GaussianPositionLikelihood, PredictionReport, TrackOutcome,
                    TrackReport, classify_track, run_prediction_protocol,
                    run_tracking_protocol, sweep)

__version__ = "0.1.0"
