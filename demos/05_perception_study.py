# Synthetic perception study: can a noisy observer tell the 9 states apart?
#
# Each session presents the 3x3 size/stiffness grid 10 times in seeded
# random order.  A synthetic responder perceives (h2, k) through
# multiplicative noise and answers the nearest state in a normalized
# log-log perceptual space.  The statistics battery then mirrors a
# standard psychophysics analysis.

import numpy as np

from afpa_sim import (
    default_config_path,
    load_config,
    accuracy_stats,
    confusion_matrix,
    schedule_trials,
    segment_analysis,
    simulate_session,
    t_test_independent,
)
from afpa_sim.drivers import plan_states

config = load_config(default_config_path())
states = plan_states(config)
responder = config.study.responder

sched = schedule_trials(states, reps=10, seed=1)
records = simulate_session(config.rig, states, sched, responder, seed=1)
overall, per_state, time_stats = accuracy_stats(records)

print(f"one session: {len(records)} trials, accuracy {overall:.1%}")
print("\nconfusion matrix (rows = presented, cols = responded):")
print(np.array_str(confusion_matrix(records), precision=2, suppress_small=True))

# Errors land almost entirely between stiffness levels of the same size:
# relative stiffness steps are harder to feel than 20 mm size steps.
print("\nper-state accuracy:", {k: round(v, 2) for k, v in per_state.items()})

# Latency carries information too: crowded states take longer to answer.
print("\nresponse time medians (s):",
      {k: round(v.median, 1) for k, v in time_stats.items()})

# Compare the easiest and hardest states' latencies with an independent
# t-test, exactly as one would on real subject data.
times_easy = [r.response_time for r in records if r.presented == 7]
times_hard = [r.response_time for r in records if r.presented == 5]
t = t_test_independent(times_easy, times_hard, equal_variance=False)
print(f"\nstate 7 vs state 5 latency: t = {t.t:.2f}, dof = {t.dof:.1f}, p = {t.p_two_sided:.4f}")

# Block-level trends over the 90 trials (10 per segment).
print("\nsegment (accuracy, mean time):")
for i, (acc, mt) in enumerate(segment_analysis(records), start=1):
    print(f"  block {i}: {acc:.2f}, {mt:.1f} s")
