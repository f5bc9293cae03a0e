"""Model construction, reception curves, and channel diagnostics."""

import math

import numpy as np
import pytest

from remotepower import (
    ActionSet,
    CostWeights,
    FadingChannel,
    ModelError,
    ReceptionModel,
    ScalarProcess,
    reception_prob,
    stationary_distribution,
    validate_channel,
    validate_stability,
)

# frozen by hand before wiring anything up
Q_EXP_4_HALF = 0.8646647167633873  # 1 - e^{-2}
Q_LOGISTIC_1_2 = 0.7615941559557649  # 2/(1+e^{-2}) - 1 = tanh(1)
STABILITY_BOUND_A12 = 0.3055555555555556  # 1 - 1/1.44 = 11/36

CANON_TRANSITION = ((0.8, 0.2), (0.3, 0.7))


def exp_channel(gains=(0.5, 2.0)):
    return FadingChannel(gains=gains, transition=CANON_TRANSITION)


def test_process_rejects_degenerate_parameters():
    with pytest.raises(ModelError):
        ScalarProcess(a=0.0, noise_var=1.0)
    with pytest.raises(ModelError):
        ScalarProcess(a=1.2, noise_var=0.0)
    with pytest.raises(ModelError):
        ScalarProcess(a=1.2, noise_var=1.0, init_var=-1.0)
    assert ScalarProcess(a=1.2, noise_var=1.0).a == 1.2


def test_channel_validation():
    with pytest.raises(ModelError):
        FadingChannel(gains=(0.5, 0.5), transition=CANON_TRANSITION)
    with pytest.raises(ModelError):
        FadingChannel(gains=(2.0, 0.5), transition=CANON_TRANSITION)
    with pytest.raises(ModelError):
        FadingChannel(gains=(-1.0, 2.0), transition=CANON_TRANSITION)
    with pytest.raises(ModelError):
        FadingChannel(gains=(0.5, 2.0), transition=((0.9, 0.2), (0.3, 0.7)))
    with pytest.raises(ModelError):
        FadingChannel(gains=(0.5, 2.0), transition=((1.2, -0.2), (0.3, 0.7)))


def test_action_set_validation():
    with pytest.raises(ModelError):
        ActionSet(levels=(1.0, 2.0), saturation_radius=6.0)  # must start at 0
    with pytest.raises(ModelError):
        ActionSet(levels=(0.0,), saturation_radius=6.0)
    with pytest.raises(ModelError):
        ActionSet(levels=(0.0, 2.0, 1.0), saturation_radius=6.0)
    with pytest.raises(ModelError):
        ActionSet(levels=(0.0, 4.0), saturation_radius=0.0)
    acts = ActionSet(levels=(0.0, 1.0, 2.0, 4.0), saturation_radius=6.0)
    assert acts.u_max == 4.0
    assert acts.n_levels == 4
    assert acts.level_index(2.0) == 2
    with pytest.raises(ModelError):
        acts.level_index(3.0)


def test_cost_weights_nonnegative():
    assert CostWeights(alpha=0.0).alpha == 0.0
    with pytest.raises(ModelError):
        CostWeights(alpha=-0.5)


def test_reception_forms_against_frozen_values():
    exp = ReceptionModel(form="exponential", scale=1.0)
    assert reception_prob(exp, 0.0, 2.0) == 0.0
    assert reception_prob(exp, 4.0, 0.5) == pytest.approx(Q_EXP_4_HALF, abs=1e-15)

    logi = ReceptionModel(form="logistic", scale=1.0)
    assert reception_prob(logi, 0.0, 1.7) == 0.0
    assert reception_prob(logi, 1.0, 2.0) == pytest.approx(Q_LOGISTIC_1_2, abs=1e-15)

    step = ReceptionModel(form="on_off", on_level=4.0, on_prob=1.0)
    for h in (0.1, 0.5, 2.0, 50.0):
        assert reception_prob(step, 4.0, h) == 1.0
        assert reception_prob(step, 3.9, h) == 0.0


def test_reception_prob_vectorizes_over_power():
    exp = ReceptionModel(form="exponential", scale=1.0)
    u = np.array([0.0, 1.0, 2.0, 4.0])
    q = reception_prob(exp, u, 0.5)
    assert isinstance(q, np.ndarray)
    assert q[0] == 0.0
    assert isinstance(reception_prob(exp, 4.0, 0.5), float)
    with pytest.raises(ModelError):
        reception_prob(exp, -1.0, 0.5)


def test_reception_validation():
    with pytest.raises(ModelError):
        ReceptionModel(form="linear")
    with pytest.raises(ModelError):
        ReceptionModel(form="exponential", scale=0.0)
    with pytest.raises(ModelError):
        ReceptionModel(form="on_off")  # needs on_level
    with pytest.raises(ModelError):
        ReceptionModel(form="on_off", on_level=2.0, on_prob=0.0)


@pytest.mark.parametrize("form,kwargs", [
    ("exponential", {"scale": 1.0}),
    ("logistic", {"scale": 2.0}),
    ("on_off", {"on_level": 2.0, "on_prob": 0.85}),
])
def test_reception_monotone_in_power_and_gain(form, kwargs):
    rec = ReceptionModel(form=form, **kwargs)
    powers = np.linspace(0.0, 6.0, 25)
    gains = [0.25, 0.5, 1.0, 2.0, 4.0]
    for h in gains:
        q = reception_prob(rec, powers, h)
        assert np.all(np.diff(q) >= 0.0)
        assert np.all((q >= 0.0) & (q <= 1.0))
    for u in powers:
        qs = [reception_prob(rec, float(u), h) for h in gains]
        assert all(b >= a for a, b in zip(qs, qs[1:]))


def test_validate_channel_examples():
    assert validate_channel(exp_channel()).ok
    ident = FadingChannel(gains=(0.5, 2.0), transition=((1.0, 0.0), (0.0, 1.0)))
    assert not validate_channel(ident).ok
    flip = FadingChannel(gains=(0.5, 2.0), transition=((0.0, 1.0), (1.0, 0.0)))
    assert not validate_channel(flip).ok


def test_stationary_distribution_oracles():
    # two-state balance solved by hand: pi_0 = p10 / (p01 + p10)
    pi = stationary_distribution(exp_channel())
    assert pi == pytest.approx([0.6, 0.4], abs=1e-12)

    sym = FadingChannel(gains=(0.5, 2.0), transition=((0.5, 0.5), (0.5, 0.5)))
    assert stationary_distribution(sym) == pytest.approx([0.5, 0.5], abs=1e-15)

    single = FadingChannel(gains=(1.0,), transition=((1.0,),))
    assert stationary_distribution(single) == pytest.approx([1.0], abs=0.0)


def test_stationary_distribution_is_invariant(rng):
    for _ in range(20):
        P = rng.dirichlet(np.ones(3), size=3)
        chan = FadingChannel(
            gains=(0.5, 1.0, 2.0),
            transition=tuple(tuple(row) for row in P),
        )
        pi = stationary_distribution(chan)
        assert np.max(np.abs(pi @ P - pi)) <= 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def stability_inputs(reception, levels=(0.0, 1.0, 2.0, 4.0)):
    return (
        ScalarProcess(a=1.2, noise_var=1.0),
        exp_channel(),
        reception,
        ActionSet(levels=levels, saturation_radius=6.0),
    )


def test_validate_stability_examples():
    # q(4, 0.5) = 1 - e^{-2} = 0.8647 clears the 1 - 1/1.44 bound
    ok = validate_stability(*stability_inputs(ReceptionModel(form="exponential", scale=1.0)))
    assert ok.ok
    assert ok.checks["margin"]

    weak = validate_stability(
        *stability_inputs(ReceptionModel(form="on_off", on_level=4.0, on_prob=0.2))
    )
    assert not weak.ok
    assert not weak.checks["margin"]

    process = ScalarProcess(a=1.0, noise_var=1.0)
    with pytest.warns(UserWarning, match="not unstable"):
        marginal = validate_stability(
            process,
            exp_channel(),
            ReceptionModel(form="exponential", scale=10.0),
            ActionSet(levels=(0.0, 0.1), saturation_radius=6.0),
        )
    # bound is 1 - 1/1 = 0, any positive success probability clears it,
    # and the stable plant is reported rather than rejected
    assert marginal.checks["margin"]
    assert not marginal.checks["unstable_process"]


def test_validate_stability_monotone_in_top_level():
    rec = ReceptionModel(form="exponential", scale=4.0)
    flags = []
    for top in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        rep = validate_stability(*stability_inputs(rec, levels=(0.0, top)))
        flags.append(rep.checks["margin"])
    assert flags == sorted(flags)  # once true, stays true


def test_stability_margin_value():
    rec = ReceptionModel(form="exponential", scale=1.0)
    q_worst = reception_prob(rec, 4.0, 0.5)
    assert q_worst - STABILITY_BOUND_A12 == pytest.approx(0.5591091612078317, abs=1e-12)


def second_moment_growth(a, fail, transition, steps=500):
    """Per-step growth of the full-power error's second moment, by iterating
    its recursion by gain, m[h'] <- sum_h P[h, h'] (1 - q_h) a^2 m[h], from
    equal moments at every gain."""
    m = np.ones(len(fail))
    for _ in range(steps):
        grown = a * a * (np.asarray(transition).T @ (np.asarray(fail) * m))
        growth = grown.sum() / m.sum()
        m = grown / grown.sum()
    return growth


@pytest.mark.parametrize("gains, reception, growth, ok", [
    pytest.param((0.5, 2.0), ReceptionModel(form="exponential", scale=1.0), 0.156, True,
                 id="canonical"),
    # q(4, 0.05) = 0.181 misses the sufficient bound q(u_max, h_min) > 11/36,
    # but the channel leaves gain 0.05 often enough
    pytest.param((0.05, 2.0), ReceptionModel(form="exponential", scale=1.0), 0.943, True,
                 id="low-gain"),
    # q = 0.2 at both gains: a^2 (1 - q) = 1.44 * 0.8
    pytest.param((0.5, 2.0), ReceptionModel(form="on_off", on_level=4.0, on_prob=0.2), 1.152,
                 False, id="on-off"),
])
def test_validate_stability_checks_the_exact_mean_square_condition(gains, reception, growth, ok):
    process, _, _, actions = stability_inputs(reception)
    rep = validate_stability(process, exp_channel(gains), reception, actions)
    assert rep.ok is rep.checks["margin"] is ok
    assert rep.checks["unstable_process"]
    assert 1.0 - rep.margin == pytest.approx(growth, abs=5e-4)
    fail = [1.0 - reception_prob(reception, actions.u_max, h) for h in gains]
    want = second_moment_growth(process.a, fail, CANON_TRANSITION)
    assert 1.0 - rep.margin == pytest.approx(want, rel=1e-12)
