"""Gravimetric map-matching aiding for inertial navigation.

Modules by concern: ``geomap`` (rasters, gated lookup, variability),
``assoc`` (probabilistic data association), ``pmht`` (batch EM tracker),
``inertial`` (truth/dead-reckoning/field-sensor simulation), ``fusion``
(UKF integration), ``harness`` (scenarios and Monte Carlo campaigns),
``config`` (scenario configuration), ``errors`` (exception types), ``cli``
(command-line entry point).
"""

from .assoc import candidate_weights, position_noise_cov
from .config import ScenarioConfig, parse_config, parse_config_text, serialize_config
from .fusion import AidingFix, FusionParams, NavBelief, apply_batch, ukf_predict, ukf_update
from .geomap import (
    CandidateSet,
    GridMap,
    SearchWindow,
    feature_variability,
    load_grid,
    lookup_candidates,
    normalize_variability,
    save_grid,
    search_window,
    value_at,
)
from .harness import CampaignReport, RunReport, gen_synthetic_map, run_campaign, run_scenario
from .inertial import (
    SENSOR_GRADES,
    FieldMeasurement,
    SensorGrade,
    Trajectory,
    sample_gravimeter,
    simulate_ins,
    simulate_truth,
)
from .pmht import (
    BatchEstimate,
    BatchProblem,
    KinematicModel,
    KinematicState,
    cv_model,
    em_step,
    run_batch,
)

__version__ = "0.1.0"
