"""Walk the three-phase blend schedule step by step.

Feeds the scheduler a hand-made loss trace: a gentle descent, then a
sustained blow-up late in the ramp. Prints alpha after every step with the
phase and the speed the ratio gate chose.

The gate compares a fast loss EMA against a slow one. Speed peaks when the
trend matches the long-run average and backs off toward half speed when the
loss is moving fast in either direction, rising or crashing.
"""

import gaplab as gl


def main():
    cfg = gl.CurriculumConfig(anchor_epochs=1, ramp_epochs=5, stabilize_epochs=1, alpha_target=0.6)
    # the step grid is the run's: a training run passes its batches per epoch
    state = gl.scheduler_new(cfg, steps_per_epoch=4)
    print(f"schedule: {state.total_steps} steps "
          f"(anchor {state.anchor_steps}, ramp ends at {state.ramp_end_step}), "
          f"target {cfg.alpha_target}")
    print()

    # a calm descent for ten steps, then the loss falls apart
    losses = [3.0] * 4 \
        + [2.2 - 0.02 * i for i in range(10)] \
        + [30.0, 35.0] + [40.0] * 8 \
        + [1.0] * 4

    # speed = alpha step / (even split of the remaining distance); the gate
    # keeps it inside [0.5, 1.5]
    print(f"{'step':>4}  {'phase':<9}  {'loss in':>7}  {'alpha out':>9}  {'speed':>6}")
    prev = 0.0
    for step, loss in enumerate(losses):
        alpha = gl.scheduler_step(state, loss)
        phase = gl.phase_of(state, step)
        speed = ""
        if phase is gl.Phase.RAMP:
            remaining = state.ramp_end_step - step
            speed = f"{(alpha - prev) / ((cfg.alpha_target - prev) / remaining):6.3f}"
        note = ""
        if step == 14:
            note = "  <- loss blowing up, gate drops to half speed"
        if step == state.ramp_end_step - 1:
            note = "  <- last ramp step snaps to target"
        print(f"{step:4d}  {phase.value:<9}  {loss:7.2f}  {alpha:9.5f}  {speed:>6}{note}")
        prev = alpha
    print()
    print("alpha still reaches the target: the gate reshapes the path, never the endpoint")
    print()

    # ---- the schedule refuses to run past its end ----
    try:
        gl.scheduler_step(state, 1.0)
    except RuntimeError as exc:
        print(f"one step too many -> RuntimeError: {exc}")


if __name__ == "__main__":
    main()
