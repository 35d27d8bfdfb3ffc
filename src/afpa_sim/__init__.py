"""Desk-scale simulator and planner for an antagonistic fabric pneumatic
actuator (AFPA) haptic rig: pouch-stack force model, coupled equilibrium,
valve/chamber dynamics, inverse planning, and a synthetic perception study.
"""

from .errors import AfpaSimError
from .pouch import (
    CrossSection,
    PouchDomainError,
    PouchStackSpec,
    contact_force,
    cross_section,
    free_height,
    volume,
    volume_gradient,
)
from .rig import (
    EquilibriumError,
    EquilibriumState,
    RigDomainError,
    RigSpec,
    force_displacement_curve,
    probe_force,
    size_pressure_sweep,
    solve_equilibrium,
    stiffness,
)
from .pneumatics import (
    IntegrationError,
    ValveSpec,
    resample_16hz,
    rise_time_90,
    step_simulate,
    valve_mass_flow,
)
from .planner import (
    HapticTarget,
    InfeasibleTargetError,
    PlanResult,
    PlannerDomainError,
    StateDef,
    constant_stiffness_path,
    feasibility_map,
    forward_map,
    plan_state,
    state_table,
)
from .study import (
    BoxStats,
    ResponderModel,
    StatisticsError,
    StudyDomainError,
    TrialRecord,
    TTestResult,
    accuracy_stats,
    box_stats,
    confusion_matrix,
    schedule_trials,
    segment_analysis,
    simulate_session,
    simulate_sessions,
    t_test_independent,
)
from .config import (
    ConfigError,
    RunConfig,
    canonical_form,
    default_config_path,
    load_config,
    parse_config,
)

__version__ = "0.1.0"
