"""Core model: parameters, derived constants and the transition kernel.

The process is a one-dimensional walk with steps in {+1, -1, 0}. The first
step is +1/-1/0 with probabilities (p, q, r). Afterwards, with probability
theta the walker picks one of its past steps uniformly at random and repeats
it with probability p, flips it with probability q, or stays put with
probability r; with probability 1 - theta it ignores its history and draws a
fresh (p, q, r) step. Conditioning on the step counts (n_plus, n_minus,
n_zero) gives the exact one-step kernel implemented in `step_distribution`.

Everything downstream is governed by the memory strength alpha = (p - q) *
theta: alpha < 1/2 is diffusive, alpha = 1/2 critical, alpha > 1/2
superdiffusive.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParams, InvalidState
from .rng import RngStream

SIMPLEX_TOL = 1e-12
CRITICAL_TOL = 1e-12


class Regime(str, Enum):
    DIFFUSIVE = "diffusive"
    CRITICAL = "critical"
    SUPERDIFFUSIVE = "superdiffusive"


def classify_regime(alpha: float) -> Regime:
    if abs(alpha - 0.5) <= CRITICAL_TOL:
        return Regime.CRITICAL
    return Regime.DIFFUSIVE if alpha < 0.5 else Regime.SUPERDIFFUSIVE


@dataclass(frozen=True)
class ModelParams:
    """User-facing parameter tuple (p, q, r, theta) on the simplex, theta < 1."""

    p: float
    q: float
    r: float
    theta: float

    def __post_init__(self):
        for name in ("p", "q", "r", "theta"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidParams(f"{name} must lie in [0, 1], got {v!r}")
        total = self.p + self.q + self.r
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise InvalidParams(
                f"p + q + r must sum to 1 (simplex violation: got {total!r})"
            )
        if self.theta >= 1.0:
            raise InvalidParams(f"theta must be < 1, got {self.theta!r}")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from (p, q, r, theta) and the regime they induce.

    alpha = (p-q)*theta      memory strength, drives the phase transition
    omega = (p-q)*(1-theta)  fresh-step drift
    tau   = (1-theta)*(p+q)  fresh-step activity
    gamma = (p+q)*theta      memory strength of the activity count
    phi   = tau/(1-gamma) - (omega/(1-alpha))^2   limiting one-step variance
    beta  = p - q            E[S_1]
    psi   = p + q            E[Z_1]
    """

    alpha: float
    omega: float
    tau: float
    gamma: float
    phi: float
    beta: float
    psi: float
    regime: Regime


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Compute DerivedConstants; accepts alpha < 0 (downstream ops reject it)."""
    p, q, theta = params.p, params.q, params.theta
    beta = p - q
    psi = p + q
    alpha = beta * theta
    omega = beta * (1.0 - theta)
    tau = (1.0 - theta) * psi
    gamma = psi * theta
    phi = tau / (1.0 - gamma) - (omega / (1.0 - alpha)) ** 2
    if phi < 0.0:
        if phi < -1e-12:
            raise InvalidParams(f"phi = {phi!r} below tolerance; invalid inputs")
        phi = 0.0
    return DerivedConstants(
        alpha=alpha,
        omega=omega,
        tau=tau,
        gamma=gamma,
        phi=phi,
        beta=beta,
        psi=psi,
        regime=classify_regime(alpha),
    )


def step_distribution(params: ModelParams, n_plus: int, n_minus: int,
                      n_zero: int):
    """Exact conditional step law (p_plus, p_minus, p_zero) given the step
    counts after n = n_plus + n_minus + n_zero >= 1 steps.

    ModelParams lets p + q + r miss 1 by SIMPLEX_TOL and a correct kernel
    adds only a few ulps of rounding, so a sum further than 2 * SIMPLEX_TOL
    from 1 is a kernel bug and raises InvalidState; nothing is rescaled.
    """
    if min(n_plus, n_minus, n_zero) < 0:
        raise InvalidState(f"negative step count in {(n_plus, n_minus, n_zero)}")
    n = n_plus + n_minus + n_zero
    if n < 1:
        raise InvalidState("the first step has no history; it is drawn from (p, q, r)")
    p, q, r, theta = params.p, params.q, params.r, params.theta
    p_plus = theta * (n_plus * p + n_minus * q) / n + (1.0 - theta) * p
    p_minus = theta * (n_minus * p + n_plus * q) / n + (1.0 - theta) * q
    p_zero = theta * n_zero * (p + q) / n + r
    total = p_plus + p_minus + p_zero
    if abs(total - 1.0) > 2.0 * SIMPLEX_TOL:
        raise InvalidState(f"step probabilities sum to {total!r} (kernel bug?)")
    return p_plus, p_minus, p_zero


def simulate_trajectory(params, n_steps, stream: RngStream, snapshots):
    """Walk one seeded trajectory; return (n, s, z) at each snapshot time.

    Draws exactly one uniform per step, so trajectories are a pure function
    of (params, n_steps, master_seed, stream_index). The first step is drawn
    from (p, q, r), every later one from `step_distribution`, each by inverse
    CDF in the fixed category order (+1, -1, 0). This is the independent
    oracle of the lockstep sampler in ensemble.py, which draws the same
    uniforms but rounds its thresholds differently: here theta * X / n and
    p_plus + p_minus, there X * (theta / m) and (Y * th_m + a) + const_minus.
    The two walks can part only where a uniform lies within one ulp of a
    threshold.
    """
    if n_steps < 1:
        raise InvalidState("n_steps must be >= 1")
    snaps = sorted(set(int(m) for m in snapshots))
    if snaps and (snaps[0] < 1 or snaps[-1] > n_steps):
        raise InvalidState("snapshots must lie in [1, n_steps]")
    wanted = set(snaps)

    out = []
    n_plus = n_minus = n_zero = 0
    p_plus, p_minus = params.p, params.q
    for n in range(1, n_steps + 1):
        u = stream.uniform()
        if u < p_plus:
            n_plus += 1
        elif u < p_plus + p_minus:
            n_minus += 1
        else:
            n_zero += 1
        if n in wanted:
            out.append((n, n_plus - n_minus, n_plus + n_minus))
        p_plus, p_minus, _ = step_distribution(params, n_plus, n_minus, n_zero)
    return out
