"""Closed-form steady-state results in the thermodynamic limit.

Everything here comes from expanding the collective spin around its
mean-field displacement in powers of eps = 1/sqrt(S) (a bosonization of
the spin fluctuations) and solving the resulting quadratic bosonic
master equation, in units of the collective jump rate. Valid only in
the ferromagnetic phase 0 <= omega < omega_c = cos(2*theta); the thermal
phase has no controlled expansion and callers are pointed at the exact solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import PhaseDomainError, ValidationError
from .operators import ModelParams


@dataclass(frozen=True)
class HPCoefficients:
    """Bosonic-expansion coefficients at one parameter point.

    beta is the mean-field displacement -i*sqrt(1-M) with magnetization
    M = sqrt(1 - (omega/omega_c)^2); k = 2 - |beta|^2 = 1 + M. The
    fluctuation mode decays with rates gamma_minus/gamma_plus and
    anomalous coupling eta built from the bare rates
    big_gamma_minus = cos^2(theta), big_gamma_plus = sin^2(theta) and the
    cross rate sin(2*theta)/2 (named `cross` here; it multiplies the
    mixed lowering-raising dissipator).
    """

    params: ModelParams
    beta: complex
    m: float
    k: float
    a_coef: float
    b_coef: float
    gamma_minus: float
    gamma_plus: float
    eta: float
    big_gamma_minus: float
    big_gamma_plus: float
    cross: float

    @property
    def sqrt_rate_sum(self) -> float:
        """sqrt(big_gamma_minus) + sqrt(big_gamma_plus), a recurring factor."""
        return math.sqrt(self.big_gamma_minus) + math.sqrt(self.big_gamma_plus)


@dataclass(frozen=True)
class GaussianSteadyState:
    """Gaussian reconstruction of the fluctuation steady state.

    Quadratures are x = b' + b and p = i(b' - b), so the vacuum has
    sigma11 = sigma22 = 1. The state is pure (det Sigma = 1): an
    undisplaced squeezed vacuum with x and p uncorrelated and momentum
    antisqueezed, sigma22 = e^{2r} >= 1 >= sigma11.
    """

    sigma11: float
    sigma22: float
    r: float
    purity: float


@dataclass(frozen=True)
class SignalPrediction:
    """Leading-order steady-state means and variances of s = S/(N/2); <s_x> = 0."""

    sy: float
    sz: float
    var_sy: float
    var_sz: float


@dataclass(frozen=True)
class ScalingExponents:
    """Critical exponents implied by d*nu = 3/2."""

    d_nu: float = 1.5
    critical_qfi: float = 4.0 / 3.0
    critical_chi: float = -1.0 / 3.0
    off_critical_bound: float = 0.25


def magnetization(params: ModelParams) -> float:
    """Mean-field magnetization: sqrt(1 - (omega/omega_c)^2), 0 when thermal.

    e^{i pi Sz} maps omega to -omega, so M depends on |omega| only.
    """
    oc = params.omega_c
    if oc <= 0 or abs(params.omega) >= oc:
        return 0.0
    return math.sqrt(1.0 - (params.omega / oc) ** 2)


#: why a closed form is refused past the critical coupling
THERMAL_PHASE = (
    "mean-field valid in ferromagnetic phase (omega < omega_c); "
    "thermal phase has M = 0, use the exact solver"
)


def _require_ferromagnetic(params: ModelParams) -> None:
    if abs(params.theta - math.pi / 4) < 1e-12:
        raise PhaseDomainError("theta = pi/4 has omega_c = 0; the expansion is invalid there")
    oc = params.omega_c
    if params.omega < 0:
        raise PhaseDomainError("mean-field results assume omega >= 0")
    if oc <= 0 or params.omega >= oc:
        raise PhaseDomainError(THERMAL_PHASE)


def hp_coefficients(params: ModelParams) -> HPCoefficients:
    """All bosonic-expansion coefficients; ferromagnetic phase only."""
    _require_ferromagnetic(params)
    m = magnetization(params)
    beta = -1j * math.sqrt(1.0 - m)
    beta_sq = -(1.0 - m)  # beta^2 is real and nonpositive
    k = 2.0 - (1.0 - m)
    sqrt_k = math.sqrt(k)
    a = (2.0 * k - (1.0 - m)) / (2.0 * sqrt_k)
    b = -beta_sq / (2.0 * sqrt_k)

    big_minus = math.cos(params.theta) ** 2
    big_plus = math.sin(params.theta) ** 2
    cross = math.sin(2.0 * params.theta) / 2.0
    gamma_minus = big_minus * a * a + big_plus * b * b + 2.0 * cross * a * b
    gamma_plus = big_plus * a * a + big_minus * b * b + 2.0 * cross * a * b
    eta = a * b * (big_minus + big_plus) + cross * (a * a + b * b)
    return HPCoefficients(
        params=params,
        beta=beta,
        m=m,
        k=k,
        a_coef=a,
        b_coef=b,
        gamma_minus=gamma_minus,
        gamma_plus=gamma_plus,
        eta=eta,
        big_gamma_minus=big_minus,
        big_gamma_plus=big_plus,
        cross=cross,
    )


def gaussian_steady_state(coeffs: HPCoefficients) -> GaussianSteadyState:
    """Covariance matrix and squeezing parameter of the fluctuation mode."""
    denom = coeffs.gamma_minus - coeffs.gamma_plus
    if denom <= 0:
        raise PhaseDomainError(
            "fluctuation mode is unstable (gamma_minus <= gamma_plus)"
        )
    s11 = (coeffs.gamma_plus + coeffs.gamma_minus - 2.0 * coeffs.eta) / denom
    s22 = (coeffs.gamma_plus + coeffs.gamma_minus + 2.0 * coeffs.eta) / denom
    det = s11 * s22
    oc = coeffs.params.omega_c
    r = 0.5 * math.log(
        (1.0 + coeffs.m) / (2.0 * oc * coeffs.m) * coeffs.sqrt_rate_sum**2
    )
    return GaussianSteadyState(sigma11=s11, sigma22=s22, r=r, purity=det ** (-0.5))


def predict_signals(coeffs: HPCoefficients, n_spins: int) -> SignalPrediction:
    """Leading-order signals and variances, eps^2 = 2/N."""
    if n_spins < 1:
        raise ValidationError("n_spins must be positive")
    m = coeffs.m
    oc = coeffs.params.omega_c
    eps2 = 2.0 / n_spins
    rate2 = coeffs.sqrt_rate_sum**2
    return SignalPrediction(
        sy=coeffs.params.omega / oc,
        sz=-m,
        var_sy=eps2 * m / (2.0 * oc) * rate2,
        var_sz=eps2 * (1.0 - m * m) / (2.0 * oc * m) * rate2,
    )


def bound_omega(params: ModelParams, n_spins: int) -> float:
    """Drive-estimation uncertainty floor from the signal-to-noise ratio.

    (omega_c^2 - omega^2)^{1/4} * (sqrt(G-) + sqrt(G+)) / sqrt(N): the
    same bound emerges from either the s_y or the s_z signal.
    """
    coeffs = hp_coefficients(params)
    sqrt_oc_m = (params.omega_c**2 - params.omega**2) ** 0.25  # sqrt(omega_c * M)
    return sqrt_oc_m * coeffs.sqrt_rate_sum / math.sqrt(n_spins)


def bound_theta(params: ModelParams, n_spins: int) -> float:
    """Squeezing-angle estimation uncertainty floor."""
    coeffs = hp_coefficients(params)
    if params.omega == 0:
        raise ValidationError("bound_theta diverges at omega = 0 (no signal)")
    tan2t = math.tan(2.0 * params.theta)
    if tan2t == 0:
        raise ValidationError("bound_theta requires tan(2*theta) != 0")
    return (
        (params.omega_c**2 - params.omega**2) ** 0.25
        * coeffs.sqrt_rate_sum
        / (2.0 * math.sqrt(n_spins) * params.omega * tan2t)
    )


def optimal_theta(omega: float) -> float:
    """Angle where the theta-estimation bound is smallest: acos(omega)/2."""
    if not 0 < omega <= 1:
        raise ValidationError("optimal_theta needs 0 < omega <= 1")
    return 0.5 * math.acos(omega)


def analytic_qfi_chi(params: ModelParams, n_spins: int) -> tuple[float, float]:
    """Thermodynamic-limit QFI and chi^2 for the optimal spin generator.

    F_Q = N/(omega_c*M) * (sqrt(G-) + sqrt(G+))^2 and chi^2 = N/F_Q;
    both diverge/vanish as M -> 0 at the critical coupling.
    """
    coeffs = hp_coefficients(params)
    rate2 = coeffs.sqrt_rate_sum**2
    qfi = n_spins / (params.omega_c * coeffs.m) * rate2
    chi2 = params.omega_c * coeffs.m / rate2
    return qfi, chi2


def predictions(params: ModelParams) -> dict:
    """Every closed-form prediction at one parameter point, by name.

    rho(-omega) = conj rho(omega), so omega < 0 gives the values at
    |omega| with <s_y> negated. The thermal phase predicts only the zero
    order parameter, {"m": 0.0, "sz": 0.0}. bound_theta is None unless
    omega and theta are nonzero, optimal_theta None unless omega is.
    """
    sign = -1.0 if params.omega < 0 else 1.0
    params = replace(params, omega=abs(params.omega))
    if magnetization(params) == 0.0:
        return {"m": 0.0, "sz": 0.0}
    n, omega = params.n_spins, params.omega
    coeffs = hp_coefficients(params)
    signals = predict_signals(coeffs, n)
    gauss = gaussian_steady_state(coeffs)
    qfi, chi2 = analytic_qfi_chi(params, n)
    return {
        "m": coeffs.m,
        "sy": sign * signals.sy,
        "sz": signals.sz,
        "var_sy": signals.var_sy,
        "var_sz": signals.var_sz,
        "bound_omega": bound_omega(params, n),
        "bound_theta": bound_theta(params, n) if omega > 0 and params.theta > 0 else None,
        "optimal_theta": optimal_theta(omega) if omega > 0 else None,
        "r": gauss.r,
        "sigma11": gauss.sigma11,
        "sigma22": gauss.sigma22,
        "purity": gauss.purity,
        "qfi": qfi,
        "chi2": chi2,
    }


def scaling_exponents() -> ScalingExponents:
    """Reference exponents used to annotate finite-size fits."""
    return ScalingExponents()
