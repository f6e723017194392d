"""Temperature-dependent material laws and the Boussinesq-type body force.

Electrical conductivity (relative to the body-temperature value sigma0):

    sigma0 * exp(0.015 (th - th_b))            th <= 99
    2.5345 * sigma0                            99  < th <= 100
    2.5345 * sigma0 * (1 - 0.198 (th - 100))   100 < th <= 105
    0.025345 * sigma0                          th > 105

Thermal conductivity:

    eta0 + 0.0012 (th - th_b)        th <= 100
    eta0 + 0.0012 (100 - th_b)       th > 100

Kinematic viscosity is constant by default (0.0021); the interface stays
temperature-typed so alternative laws can plug in.  All laws are pure and
total.  The positivity/boundedness assumptions on the laws are validated by
sampling (:func:`validate_bounds`); note the conductivity law has a small
built-in jump at 99 C (exp(0.93) != 2.5345 exactly), which is reported there
rather than patched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fem_core

DEFAULT_BUOYANCY_COEFF = 1e-3 * 9.81 / 303.0

ADMISSIBLE_RANGE = (-50.0, 300.0)


@dataclass
class BuoyancySettings:
    enabled: bool = False
    coefficient: float = DEFAULT_BUOYANCY_COEFF


@dataclass
class MaterialModel:
    """Material constants plus declared bounds for the positivity checks."""

    sigma0: float = 0.6
    eta0: float = 0.54
    nu_const: float = 0.0021
    theta_b: float = 37.0
    buoyancy: BuoyancySettings = field(default_factory=BuoyancySettings)
    # Optional callable(theta) overrides of the default laws; the verification
    # cases use these to pin constant coefficients.
    nu_law: object = field(default=None, repr=False, compare=False)
    eta_law: object = field(default=None, repr=False, compare=False)
    sigma_law: object = field(default=None, repr=False, compare=False)

    # Declared (A1)-style bounds; defaults derived from the laws over the
    # admissible range in __post_init__.
    nu1: float | None = None
    nu2: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    gamma1: float | None = None
    gamma2: float | None = None

    def __post_init__(self):
        if self.nu1 is None:
            self.nu1 = self.nu_const
        if self.nu2 is None:
            self.nu2 = self.nu_const
        if self.lambda1 is None:
            self.lambda1 = 0.025345 * self.sigma0
        if self.lambda2 is None:
            # The exponential branch tops out at 99 C and slightly overshoots
            # the rounded 2.5345 plateau (exp(0.93) = 2.53451...).
            self.lambda2 = self.sigma0 * max(2.5345,
                                             float(np.exp(0.015 * (99.0 - self.theta_b))))
        if self.gamma1 is None:
            self.gamma1 = self.eta0 + 0.0012 * (ADMISSIBLE_RANGE[0] - self.theta_b)
        if self.gamma2 is None:
            self.gamma2 = self.eta0 + 0.0012 * (100.0 - self.theta_b)

    # -- laws -----------------------------------------------------------------

    def sigma(self, theta):
        """Electrical conductivity (piecewise, vectorized)."""
        th = np.asarray(theta, dtype=float)
        if self.sigma_law is not None:
            out = np.asarray(self.sigma_law(th), dtype=float)
            return out if out.ndim else float(out)
        s0 = self.sigma0
        out = np.where(
            th <= 99.0,
            s0 * np.exp(0.015 * (th - self.theta_b)),
            np.where(
                th <= 100.0,
                2.5345 * s0,
                np.where(
                    th <= 105.0,
                    2.5345 * s0 * (1.0 - 0.198 * (th - 100.0)),
                    0.025345 * s0,
                ),
            ),
        )
        return out if out.ndim else float(out)

    def eta(self, theta):
        """Thermal conductivity (linear ramp, plateau above 100 C)."""
        th = np.asarray(theta, dtype=float)
        if self.eta_law is not None:
            out = np.asarray(self.eta_law(th), dtype=float)
        else:
            out = self.eta0 + 0.0012 * (np.minimum(th, 100.0) - self.theta_b)
        return out if out.ndim else float(out)

    def nu(self, theta):
        """Kinematic viscosity; constant unless a custom law is installed."""
        th = np.asarray(theta, dtype=float)
        if self.nu_law is not None:
            out = np.asarray(self.nu_law(th), dtype=float)
        else:  # a read-only view of the one constant: no array of copies
            out = np.broadcast_to(float(self.nu_const), th.shape)
        return out if out.ndim else float(out)

    def body_force(self, theta):
        """Buoyancy force (0, -c (th - th_b)); zero when disabled.

        Vectorized: returns (Fx, Fy) with the shape of ``theta``.
        """
        th = np.asarray(theta, dtype=float)
        fx = np.zeros_like(th)
        if self.buoyancy.enabled:
            fy = -self.buoyancy.coefficient * (th - self.theta_b)
        else:
            fy = np.zeros_like(th)
        if fx.ndim:
            return fx, fy
        return float(fx), float(fy)


class FieldSample:
    """The temperature ``theta_h`` (P1 nodal) and the velocity ``v_h`` (MINI
    dofs) at the quadrature points of ``mesh``, with the laws of ``model`` and
    D(v):D(v) there, and the velocity's (NT, 2, 4) MINI element coefficients
    ``coeffs``, from which the velocity's values, the velocity-linear blocks
    and the scalar ``advection`` matrix are formed.  Each value is evaluated
    on first read, then shared; a field may be None while its values are
    unread.  The velocity's values are read-only, since :meth:`with_theta`
    hands them to the next sample of the same velocity."""

    VELOCITY_VALUES = ("coeffs", "v", "strain", "advection")

    def __init__(self, model: MaterialModel, mesh, theta_h, v_h=None):
        self.model, self.mesh, self.theta_h, self.v_h = model, mesh, theta_h, v_h

    theta = cached_property(lambda self: fem_core.p1_at_qp(self.mesh, self.theta_h))
    sigma = cached_property(lambda self: self.model.sigma(self.theta))
    eta = cached_property(lambda self: self.model.eta(self.theta))
    nu = cached_property(lambda self: self.model.nu(self.theta))
    coeffs = cached_property(lambda self: fem_core._frozen(
        fem_core.velocity_element_coeffs(self.mesh, self.v_h)))
    v = cached_property(lambda self: fem_core._frozen(
        fem_core.velocity_at_qp(self.mesh, self.coeffs)))
    advection = cached_property(lambda self: fem_core._frozen_csr(
        fem_core.assemble_advection(self.mesh, self.coeffs)))

    @cached_property
    def strain(self):
        from .flow_solver import viscous_dissipation  # flow_solver imports this module
        return fem_core._frozen(viscous_dissipation(self.mesh, self.coeffs))

    def with_theta(self, theta_h) -> "FieldSample":
        """The sample of ``theta_h`` and this sample's velocity, holding the
        velocity's values evaluated so far, so that none is evaluated twice."""
        out = FieldSample(self.model, self.mesh, theta_h, self.v_h)
        out.__dict__.update((name, self.__dict__[name]) for name in self.VELOCITY_VALUES
                            if name in self.__dict__)
        return out

    def drop(self, *names):
        """Free this sample's values ``names``; a later read evaluates them
        again.  A sample that :meth:`with_theta` made keeps its own."""
        for name in names:
            self.__dict__.pop(name, None)


def branch_limits(model: MaterialModel) -> dict:
    """One-sided branch values of sigma and eta at each breakpoint.

    Evaluated from the closed-form branch expressions (not by sampling), so a
    genuinely continuous law shows a zero jump to round-off.
    """
    s0, e0, tb = model.sigma0, model.eta0, model.theta_b
    sigma_sides = {
        99.0: (s0 * np.exp(0.015 * (99.0 - tb)), 2.5345 * s0),
        100.0: (2.5345 * s0, 2.5345 * s0 * (1.0 - 0.198 * 0.0)),
        105.0: (2.5345 * s0 * (1.0 - 0.198 * 5.0), 0.025345 * s0),
    }
    eta_plateau = e0 + 0.0012 * (100.0 - tb)
    eta_sides = {
        99.0: (e0 + 0.0012 * (99.0 - tb),) * 2,
        100.0: (eta_plateau, eta_plateau),
        105.0: (eta_plateau, eta_plateau),
    }
    return {"sigma": sigma_sides, "eta": eta_sides}


def validate_bounds(model: MaterialModel) -> dict:
    """Sampled check of positivity/boundedness of the laws and their declared bounds.

    Returns a report with per-law min/max over the sampling grid (0 to 200 C
    in steps of 0.01), any bound violations, and the breakpoint continuity
    flags (the 99 C jump of the conductivity law is expected and reported,
    not raised).
    """
    grid = np.arange(0.0, 200.0 + 0.005, 0.01)
    report: dict = {"violations": [], "ranges": {}, "continuity": {}}

    laws = {
        "sigma": (model.sigma, model.lambda1, model.lambda2),
        "eta": (model.eta, model.gamma1, model.gamma2),
        "nu": (model.nu, model.nu1, model.nu2),
    }
    for name, (law, lo, hi) in laws.items():
        vals = np.asarray(law(grid))
        vmin, vmax = float(vals.min()), float(vals.max())
        report["ranges"][name] = (vmin, vmax)
        if vmin <= 0.0:
            report["violations"].append(f"{name} not strictly positive (min {vmin:.3e})")
        if vmin < lo - 1e-12 or vmax > hi + 1e-12:
            report["violations"].append(
                f"{name} leaves declared bounds [{lo:.6g}, {hi:.6g}]: "
                f"sampled range [{vmin:.6g}, {vmax:.6g}]"
            )

    sides = branch_limits(model)
    for name, per_bp in sides.items():
        for bp, (left, right) in per_bp.items():
            report["continuity"][(name, bp)] = abs(float(left) - float(right))
    # The conductivity jump at 99 C (exp(0.93) vs the rounded 2.5345) is
    # flagged but not treated as a bound violation.
    report["sigma_jump_99"] = report["continuity"][("sigma", 99.0)]
    report["passed"] = not report["violations"]
    return report
