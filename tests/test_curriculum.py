import itertools
import math

import numpy as np
import pytest

import gaplab as gl
from gaplab import Phase


def tiny(anchor=1, ramp=2, stabilize=1, target=0.5, spe=4, **kw) -> gl.CurriculumState:
    """A fresh scheduler state on spe steps per epoch."""
    cfg = gl.CurriculumConfig(anchor_epochs=anchor, ramp_epochs=ramp, stabilize_epochs=stabilize,
                              alpha_target=target, **kw)
    return gl.scheduler_new(cfg, spe)


def reference_alpha_trace(state: gl.CurriculumState, losses) -> list[float]:
    """Straight-line reimplementation of the schedule used as an oracle; reads
    only state's config and step grid."""
    cfg = state.config
    alpha, slow, fast = 0.0, None, None
    out = []
    for step, loss in enumerate(losses):
        if step < state.anchor_steps:
            alpha = 0.0
        elif step < state.ramp_end_step:
            if slow is None:
                slow = fast = loss
            else:
                slow = cfg.ema_slow_decay * slow + (1 - cfg.ema_slow_decay) * loss
                fast = cfg.ema_fast_decay * fast + (1 - cfg.ema_fast_decay) * loss
            remaining = state.ramp_end_step - step
            if remaining == 1:
                alpha = cfg.alpha_target
            else:
                rho = 1.0 if slow == 0.0 else min(max(fast / slow, 0.0), 2.0)
                s = rho if rho <= 1.0 else 2.0 - rho
                alpha = alpha + (cfg.alpha_target - alpha) / remaining * (0.5 + s)
        else:
            alpha = cfg.alpha_target
        out.append(alpha)
    return out


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        tiny(anchor=-1)
    with pytest.raises(ValueError):
        tiny(anchor=0, ramp=0, stabilize=0)
    for spe in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match="^steps_per_epoch must be (an integer|>= 1), got "):
            tiny(spe=spe)
    with pytest.raises(ValueError):
        tiny(target=1.5)
    with pytest.raises(ValueError):
        tiny(ema_fast_decay=0.99, ema_slow_decay=0.9)   # wrong order
    with pytest.raises(ValueError):
        tiny(ema_fast_decay=1.0)
    with pytest.raises(ValueError):
        gl.CurriculumConfig(anchor_epochs=True)          # bool is not a count
    with pytest.raises(TypeError):
        gl.CurriculumConfig(steps_per_epoch=2)           # the step grid is the run's


def test_config_step_arithmetic():
    state = tiny(anchor=2, ramp=3, stabilize=1, spe=5)
    assert state.steps_per_epoch == 5
    assert state.anchor_steps == 10
    assert state.ramp_end_step == 25
    assert state.total_steps == 30


# ----------------------------------------------------------------- phase_of

def test_phase_boundaries():
    state = tiny(anchor=2, ramp=3, stabilize=1, spe=5)
    assert gl.phase_of(state, 0) is Phase.ANCHOR
    assert gl.phase_of(state, 9) is Phase.ANCHOR
    assert gl.phase_of(state, 10) is Phase.RAMP           # first ramp step
    assert gl.phase_of(state, 24) is Phase.RAMP
    assert gl.phase_of(state, 25) is Phase.STABILIZE      # first stabilize step
    assert gl.phase_of(state, 29) is Phase.STABILIZE
    assert gl.phase_of(state, np.int64(9)) is Phase.ANCHOR
    # past either end, or not an integer (9.5 and True once read as anchor steps)
    for step in (30, -1, 9.5, True, "3"):
        with pytest.raises(ValueError, match=f"^global_step must be .*, got {step!r}$"):
            gl.phase_of(state, step)


def test_no_anchor_starts_in_ramp():
    state = tiny(anchor=0)
    assert state.phase is Phase.RAMP
    assert state.alpha == 0.0
    assert state.ema_slow is None and state.ema_fast is None


def test_no_ramp_jumps_to_target():
    # each value is the alpha of the step after it: the first Stabilize step's is the target
    state = tiny(anchor=1, ramp=0, stabilize=1, target=0.7, spe=3)
    trace = [gl.scheduler_step(state, 1.0) for _ in range(state.total_steps)]
    assert trace == [0.0, 0.0, 0.7, 0.7, 0.7, 0.7]


def test_each_step_uses_the_alpha_of_its_phase_for_every_schedule_shape():
    # state.alpha before a step is the alpha that step trains at
    rng = np.random.default_rng(4)
    for spe in (1, 3):
        for anchor, ramp, stabilize in itertools.product(range(3), repeat=3):
            if anchor + ramp + stabilize == 0:
                continue
            state = tiny(anchor, ramp, stabilize, target=0.6, spe=spe)
            prev = 0.0
            for step in range(state.total_steps):
                alpha, phase = state.alpha, gl.phase_of(state, step)
                shape = (anchor, ramp, stabilize, spe, step)
                if phase is Phase.ANCHOR:
                    assert alpha == 0.0, shape
                elif phase is Phase.STABILIZE:
                    assert alpha == 0.6, shape
                else:
                    assert prev <= alpha <= 0.6, shape
                prev = alpha
                gl.scheduler_step(state, float(rng.uniform(0.0, 5.0)))


# ------------------------------------------------------------ ramp dynamics

def test_first_ramp_increment_hand_value():
    # 100 ramp steps from 0 toward 0.5; EMAs initialize equal so the speed
    # factor is 1.5 and the first increment is (0.5 / 100) * 1.5.
    state = tiny(anchor=0, ramp=1, stabilize=1, target=0.5, spe=100)
    alpha = gl.scheduler_step(state, 1.0)
    assert abs(alpha - 0.0075) < 1e-15
    assert state.ema_slow == 1.0 and state.ema_fast == 1.0


def test_rising_loss_halves_the_ramp_speed():
    state = tiny(anchor=0, ramp=1, stabilize=1, target=0.5, spe=100)
    a1 = gl.scheduler_step(state, 1.0)
    a2 = gl.scheduler_step(state, 1000.0)   # loss explodes; rho clips to 2, s = 0
    expected = a1 + (0.5 - a1) / 99 * 0.5
    assert abs(a2 - expected) < 1e-15


def test_falling_loss_ramps_at_half_plus_rho():
    state = tiny(anchor=0, ramp=1, stabilize=1, target=0.5, spe=100)
    a1 = gl.scheduler_step(state, 1.0)
    a2 = gl.scheduler_step(state, 0.0)      # fast EMA drops quicker: rho < 1
    rho = 0.9 / 0.99
    expected = a1 + (0.5 - a1) / 99 * (0.5 + rho)
    assert abs(a2 - expected) < 1e-15


def test_a_flat_loss_ramps_fastest():
    # s(rho) is a tent that peaks at rho = 1: a trend either way slows the ramp
    def alpha_after(losses):
        state = tiny(anchor=0, ramp=1, stabilize=1, target=1.0, spe=60)
        return [gl.scheduler_step(state, float(loss)) for loss in losses][-1]

    flat = alpha_after([1.5] * 20)
    falling = alpha_after(np.linspace(2.0, 1.0, 20))
    rising = alpha_after(np.linspace(1.0, 2.0, 20))
    assert flat > falling > rising


def test_final_ramp_step_snaps_to_target_exactly():
    state = tiny(anchor=1, ramp=1, stabilize=1, target=0.37, spe=6)
    rng = np.random.default_rng(0)
    trace = [gl.scheduler_step(state, float(rng.uniform(0.5, 4.0)))
             for _ in range(state.ramp_end_step)]
    assert trace[-1] == 0.37


def test_zero_target_keeps_alpha_at_zero():
    state = tiny(target=0.0)
    for _ in range(state.total_steps):
        assert gl.scheduler_step(state, 2.0) == 0.0


# --------------------------------------------------------------- state flow

def test_phase_field_tracks_upcoming_step():
    state = tiny(anchor=1, ramp=1, stabilize=1, spe=2)
    seen = []
    for _ in range(state.total_steps):
        gl.scheduler_step(state, 1.0)
        seen.append(state.phase)
    assert seen == [Phase.ANCHOR, Phase.RAMP, Phase.RAMP,
                    Phase.STABILIZE, Phase.STABILIZE, Phase.STABILIZE]


def test_exhausted_schedule_raises():
    state = tiny(anchor=0, ramp=1, stabilize=0, spe=2)
    gl.scheduler_step(state, 1.0)
    gl.scheduler_step(state, 1.0)
    with pytest.raises(RuntimeError):
        gl.scheduler_step(state, 1.0)


def test_bad_observed_loss_raises():
    state = tiny()
    for bad in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError):
            gl.scheduler_step(state, bad)


# ---------------------------------------------------------------- contracts

def test_schedule_contract_over_random_configs_and_losses():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cfg = gl.CurriculumConfig(
            anchor_epochs=int(rng.integers(0, 4)),
            ramp_epochs=int(rng.integers(1, 5)),
            stabilize_epochs=int(rng.integers(0, 3)),
            alpha_target=float(rng.uniform(0.05, 1.0)),
        )
        spe = int(rng.integers(1, 9))
        for _ in range(5):
            state = gl.scheduler_new(cfg, spe)
            losses = rng.uniform(0.0, 5.0, size=state.total_steps)
            trace = [gl.scheduler_step(state, float(x)) for x in losses]

            assert trace == reference_alpha_trace(state, losses)
            prev = 0.0
            for step, alpha in enumerate(trace):
                phase = gl.phase_of(state, step)
                if phase is Phase.ANCHOR:
                    assert alpha == 0.0
                elif phase is Phase.STABILIZE:
                    assert alpha == cfg.alpha_target
                else:
                    remaining = state.ramp_end_step - step
                    if remaining == 1:
                        assert alpha == cfg.alpha_target
                    else:
                        # implied speed factor stays within [0.5, 1.5]
                        base = (cfg.alpha_target - prev) / remaining
                        if base > 1e-15:
                            factor = (alpha - prev) / base
                            assert 0.5 - 1e-9 <= factor <= 1.5 + 1e-9
                assert prev <= alpha + 1e-15
                assert alpha <= cfg.alpha_target + 1e-15
                prev = alpha
            assert math.isclose(trace[-1], cfg.alpha_target, abs_tol=0.0)


def test_scheduler_is_deterministic():
    rng = np.random.default_rng(3)
    losses = rng.uniform(0.2, 2.0, size=tiny(anchor=1, ramp=4, stabilize=1, spe=5).total_steps)
    runs = []
    for _ in range(2):
        state = tiny(anchor=1, ramp=4, stabilize=1, spe=5)
        runs.append([gl.scheduler_step(state, float(x)) for x in losses])
    assert runs[0] == runs[1]
