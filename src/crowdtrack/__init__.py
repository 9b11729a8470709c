"""Crowd motion model, per-agent particle filters and tracking benchmarks."""

from .rvo import RvoParams, crowd_step
from .motion import BodySpec, CrowdContext, NoiseSpec, resolve_model
from .filters import (FilterHistory, HpfConfig, InsufficientHistory,
                      ParticleSet, hpf_step, pf_step, resample)
from .data import (Frame, Scenario, Trace, corrupt, make_scenario,
                   parse_trajectories, write_trajectories)
from .bench import (GaussianPositionLikelihood, PredictionReport, TrackOutcome,
                    TrackReport, classify_track, run_prediction_protocol,
                    run_tracking_protocol, sweep)

__version__ = "0.1.0"
