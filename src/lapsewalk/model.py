"""Core model: parameters, derived constants, walk state and transition kernel.

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
# |sum - 1| above this is renormalized; above RENORM_MAX it is a kernel bug
RENORM_MIN = 1e-12
RENORM_MAX = 1e-9


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


@dataclass(frozen=True)
class StepDistribution:
    """One-step probabilities over (+1, -1, 0)."""

    p_plus: float
    p_minus: float
    p_zero: float

    def __post_init__(self):
        for name in ("p_plus", "p_minus", "p_zero"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidState(f"{name} = {v!r} outside [0, 1]")
        total = self.p_plus + self.p_minus + self.p_zero
        drift = abs(total - 1.0)
        if drift > RENORM_MAX:
            raise InvalidState(
                f"step probabilities sum to {total!r}; drift {drift:.3e} "
                "exceeds the renormalization window (kernel bug?)"
            )
        if drift > RENORM_MIN:
            object.__setattr__(self, "p_plus", self.p_plus / total)
            object.__setattr__(self, "p_minus", self.p_minus / total)
            object.__setattr__(self, "p_zero", self.p_zero / total)


@dataclass(frozen=True)
class WalkState:
    """Step counts after n steps; position and activity are derived."""

    n: int
    n_plus: int
    n_minus: int
    n_zero: int

    def __post_init__(self):
        if min(self.n_plus, self.n_minus, self.n_zero) < 0:
            raise InvalidState("negative step count")
        if self.n_plus + self.n_minus + self.n_zero != self.n:
            raise InvalidState("counts do not sum to n")

    @classmethod
    def initial(cls) -> "WalkState":
        return cls(0, 0, 0, 0)

    @property
    def s(self) -> int:
        """Position S_n = n_plus - n_minus."""
        return self.n_plus - self.n_minus

    @property
    def z(self) -> int:
        """Activity Z_n = n_plus + n_minus (number of nonzero steps)."""
        return self.n_plus + self.n_minus


def first_step_distribution(params: ModelParams) -> StepDistribution:
    return StepDistribution(params.p, params.q, params.r)


def step_distribution(params: ModelParams, state: WalkState) -> StepDistribution:
    """Exact conditional step law given the counts after n >= 1 steps."""
    n = state.n
    if n < 1:
        raise InvalidState("first step has no history; use first_step_distribution")
    p, q, r, theta = params.p, params.q, params.r, params.theta
    p_plus = theta * (state.n_plus * p + state.n_minus * q) / n + (1.0 - theta) * p
    p_minus = theta * (state.n_minus * p + state.n_plus * q) / n + (1.0 - theta) * q
    p_zero = theta * state.n_zero * (p + q) / n + r
    return StepDistribution(p_plus, p_minus, p_zero)


def sample_step(dist: StepDistribution, u: float) -> int:
    """Inverse-CDF draw with fixed category order (+1, -1, 0)."""
    if u < dist.p_plus:
        return 1
    if u < dist.p_plus + dist.p_minus:
        return -1
    return 0


def advance(state: WalkState, step: int) -> WalkState:
    assert step in (1, -1, 0), step
    return WalkState(
        n=state.n + 1,
        n_plus=state.n_plus + (step == 1),
        n_minus=state.n_minus + (step == -1),
        n_zero=state.n_zero + (step == 0),
    )


def simulate_trajectory(params, n_steps, stream: RngStream, snapshots):
    """Walk one seeded trajectory; return (n, s, z) at each snapshot time.

    Draws exactly one uniform per step, so trajectories are a pure function
    of (params, n_steps, master_seed, stream_index). This is the independent
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
    state = advance(WalkState.initial(),
                    sample_step(first_step_distribution(params), stream.uniform()))
    if 1 in wanted:
        out.append((1, state.s, state.z))
    for _ in range(n_steps - 1):
        dist = step_distribution(params, state)
        state = advance(state, sample_step(dist, stream.uniform()))
        if state.n in wanted:
            out.append((state.n, state.s, state.z))
    return out
