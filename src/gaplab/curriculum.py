"""Three-phase blend-weight schedule with a loss-adaptive ramp.

Training proceeds through Anchor (alpha pinned at 0), Ramp (alpha climbs to
alpha_target at a rate modulated by the trend of the contrastive loss), and
Stabilize (alpha held at alpha_target). During the ramp, two exponential
moving averages of the observed loss with different horizons are compared:
their ratio rho, clipped to [0, 2], is mapped through s(rho) = rho for
rho <= 1 else 2 - rho, and the per-step increment is

    delta_alpha = (alpha_target - alpha) / remaining_steps * (0.5 + s(rho))

so s is a tent that peaks at rho = 1: a flat loss ramps fastest (factor 1.5),
and any trend slows the ramp, a falling loss (rho < 1) as well as a rising
one (rho > 1); the speed factor stays inside [0.5, 1.5]. Because the factor
can stay below 1, the final ramp step assigns alpha = alpha_target outright;
that keeps the "reaches the target by the end of the ramp" contract without
overshooting.
A CurriculumState lives for one run: nothing snapshots or resumes it. It
holds the run's step grid (steps per epoch, a fact of the data, not of the
config), and its phase is read off its step count, not stored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .numerics import _check_fields, _scalar

__all__ = [
    "Phase",
    "CurriculumConfig",
    "CurriculumState",
    "scheduler_new",
    "scheduler_step",
    "phase_of",
]


class Phase(enum.Enum):
    ANCHOR = "anchor"
    RAMP = "ramp"
    STABILIZE = "stabilize"


@dataclass(frozen=True)
class CurriculumConfig:
    anchor_epochs: int = field(default=3, metadata={"low": 0})
    ramp_epochs: int = field(default=5, metadata={"low": 0})
    stabilize_epochs: int = field(default=2, metadata={"low": 0})
    alpha_target: float = field(default=0.5, metadata={"low": 0, "high": 1})
    ema_slow_decay: float = 0.99
    ema_fast_decay: float = 0.9

    def __post_init__(self):
        _check_fields(self)
        if self.anchor_epochs + self.ramp_epochs + self.stabilize_epochs < 1:
            raise ValueError("anchor_epochs + ramp_epochs + stabilize_epochs must be >= 1, got 0")
        for name, value in (("ema_slow_decay", self.ema_slow_decay), ("ema_fast_decay", self.ema_fast_decay)):
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.ema_fast_decay >= self.ema_slow_decay:
            raise ValueError("ema_fast_decay must be smaller than ema_slow_decay")


@dataclass
class CurriculumState:
    """Single-owner mutable scheduler state; one instance per training run."""

    config: CurriculumConfig
    steps_per_epoch: int
    global_step: int = 0
    alpha: float = 0.0
    ema_slow: float | None = None
    ema_fast: float | None = None

    @property
    def anchor_steps(self) -> int:
        return self.config.anchor_epochs * self.steps_per_epoch

    @property
    def ramp_end_step(self) -> int:
        return (self.config.anchor_epochs + self.config.ramp_epochs) * self.steps_per_epoch

    @property
    def total_steps(self) -> int:
        return self.ramp_end_step + self.config.stabilize_epochs * self.steps_per_epoch

    @property
    def phase(self) -> Phase:
        """Phase of the next step; once the schedule is exhausted, that of the last one."""
        return _phase(self, min(self.global_step, self.total_steps - 1))


def phase_of(state: CurriculumState, global_step: int) -> Phase:
    """Phase governing a given step index of state's schedule, an integer in
    [0, total_steps - 1]."""
    return _phase(state, _scalar(global_step, "global_step", integer=True, low=0, high=state.total_steps - 1))


def _phase(state: CurriculumState, global_step: int) -> Phase:
    """phase_of for a step known to lie in the schedule: the step loop's, unchecked."""
    if global_step < state.anchor_steps:
        return Phase.ANCHOR
    if global_step < state.ramp_end_step:
        return Phase.RAMP
    return Phase.STABILIZE


def scheduler_new(config: CurriculumConfig, steps_per_epoch: int) -> CurriculumState:
    """Fresh state at step 0 with alpha 0 and EMAs untracked, on a grid of
    steps_per_epoch optimizer steps per epoch (an integer >= 1)."""
    return CurriculumState(config, _scalar(steps_per_epoch, "steps_per_epoch", integer=True, low=1))


def scheduler_step(state: CurriculumState, observed_rw_loss: float) -> float:
    """Advance one step given the contrastive-term loss of the step just run.

    Returns the alpha to use for the next step. EMA tracking starts at the
    first ramp step; both averages begin at the first observed value, so the
    first ramp increment runs at the full 1.5x speed factor.
    """
    observed = _scalar(observed_rw_loss, "observed loss", low=0)
    cfg = state.config
    if state.global_step >= state.total_steps:
        raise RuntimeError(f"schedule exhausted after {state.total_steps} steps")

    phase = _phase(state, state.global_step)
    if phase is Phase.ANCHOR:
        state.alpha = 0.0
    elif phase is Phase.RAMP:
        if state.ema_slow is None:
            state.ema_slow = observed
            state.ema_fast = observed
        else:
            sd, fd = cfg.ema_slow_decay, cfg.ema_fast_decay
            state.ema_slow = sd * state.ema_slow + (1.0 - sd) * observed
            state.ema_fast = fd * state.ema_fast + (1.0 - fd) * observed
        remaining = state.ramp_end_step - state.global_step
        if remaining == 1:
            state.alpha = cfg.alpha_target
        else:
            if state.ema_slow == 0.0:
                rho = 1.0
            else:
                rho = min(max(state.ema_fast / state.ema_slow, 0.0), 2.0)
            s = rho if rho <= 1.0 else 2.0 - rho
            state.alpha = state.alpha + (cfg.alpha_target - state.alpha) / remaining * (0.5 + s)
    else:
        state.alpha = cfg.alpha_target

    state.global_step += 1
    return state.alpha
