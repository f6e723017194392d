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
total.  Their (A1) bounds are read from the laws (:attr:`MaterialModel.bounds`)
and checked by sampling (:func:`validate_bounds`); note the conductivity law
has a small built-in jump at 99 C (exp(0.93) != 2.5345 exactly), which is
reported there rather than patched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from . import fem_core

DEFAULT_BUOYANCY_COEFF = 1e-3 * 9.81 / 303.0

ADMISSIBLE_RANGE = (-50.0, 300.0)

# The temperatures at which the default laws change branch.
BREAKPOINTS = (99.0, 100.0, 105.0)


def _law(default):
    """The law ``default(model, th)`` as a method of any temperature: the
    model's ``<name>_law``, when set, replaces the default, and a scalar
    temperature gives a Python float."""
    override = f"{default.__name__}_law"

    @wraps(default)
    def law(self, theta):
        th = np.asarray(theta, dtype=float)
        custom = getattr(self, override)
        out = np.asarray(default(self, th) if custom is None else custom(th), dtype=float)
        return out if out.ndim else float(out)
    return law


@dataclass
class BuoyancySettings:
    enabled: bool = False
    coefficient: float = DEFAULT_BUOYANCY_COEFF


@dataclass
class MaterialModel:
    """Material constants and the laws they enter; :attr:`bounds` reads the
    laws' (A1) bounds off the laws themselves."""

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

    # -- laws -----------------------------------------------------------------

    @_law
    def sigma(self, th):
        """Electrical conductivity (piecewise, vectorized)."""
        s0 = self.sigma0
        t1, t2, t3 = BREAKPOINTS
        low = s0 * np.exp(0.015 * (th - self.theta_b))
        if (th <= t1).all():  # the exponential branch alone; a NaN is not <= t1
            return low
        return np.where(th <= t1, low,
                        np.where(th <= t2, 2.5345 * s0,
                                 np.where(th <= t3, 2.5345 * s0 * (1.0 - 0.198 * (th - t2)),
                                          0.025345 * s0)))

    @_law
    def eta(self, th):
        """Thermal conductivity (linear ramp, plateau above 100 C)."""
        return self.eta0 + 0.0012 * (np.minimum(th, BREAKPOINTS[1]) - self.theta_b)

    @_law
    def nu(self, th):
        """Kinematic viscosity; constant unless a custom law is installed."""
        # A read-only view of the one constant: no array of copies.
        return np.broadcast_to(float(self.nu_const), th.shape)

    @property
    def bounds(self) -> dict:
        """(A1) bounds (lo, hi) of "sigma", "eta" and "nu" over
        ``ADMISSIBLE_RANGE``: each law's least and greatest value at the
        range's ends and at each breakpoint and one ulp above it, which bound
        any law monotone between breakpoints.  Read from the laws in force,
        overrides included, on each read."""
        points = np.array([*ADMISSIBLE_RANGE, *BREAKPOINTS,
                           *np.nextafter(BREAKPOINTS, np.inf)])
        values = {"sigma": self.sigma(points), "eta": self.eta(points), "nu": self.nu(points)}
        return {name: (float(v.min()), float(v.max())) for name, v in values.items()}

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


class TemperatureSample:
    """The temperature ``theta_h`` (P1 nodal) of ``mesh`` at the quadrature
    points (``theta``), with the laws of ``model`` there (``sigma``,
    ``eta``, ``nu``).  Each value is evaluated on first read, then shared."""

    def __init__(self, model: MaterialModel, mesh, theta_h):
        self.model, self.mesh, self.theta_h = model, mesh, theta_h

    theta = cached_property(lambda self: fem_core.p1_at_qp(self.mesh, self.theta_h))
    sigma = cached_property(lambda self: self.model.sigma(self.theta))
    eta = cached_property(lambda self: self.model.eta(self.theta))

    @cached_property
    def nu(self):
        # The default law is a constant, which reads no temperature: at a
        # NaN stand-in it gives its own number.
        if self.model.nu_law is None:
            return self.model.nu(np.nan)
        return self.model.nu(self.theta)


def branch_limits(model: MaterialModel) -> dict:
    """One-sided values of sigma and eta at each breakpoint: the law at the
    breakpoint and one ulp above it, so a continuous law shows a jump of
    round-off size."""
    laws = {"sigma": model.sigma, "eta": model.eta}
    return {name: {bp: (law(bp), law(np.nextafter(bp, np.inf))) for bp in BREAKPOINTS}
            for name, law in laws.items()}


def validate_bounds(model: MaterialModel) -> dict:
    """Sampled check of positivity/boundedness of the laws and their (A1) bounds.

    Returns a report with per-law min/max over the sampling grid (all of
    ``ADMISSIBLE_RANGE``, which the bounds span, in steps of 0.01), any bound
    violations, and the breakpoint continuity flags, the one home of every
    branch jump (the 99 C jump of the conductivity law is expected and
    reported in them, not raised).
    """
    # Each hundredth of a degree in ADMISSIBLE_RANGE, as the double nearest it.
    grid = np.arange(100.0 * ADMISSIBLE_RANGE[0], 100.0 * ADMISSIBLE_RANGE[1] + 1.0) / 100.0
    report: dict = {"violations": [], "ranges": {}, "continuity": {}}

    for name, (lo, hi) in model.bounds.items():
        vals = np.asarray(getattr(model, name)(grid))
        vmin, vmax = float(vals.min()), float(vals.max())
        report["ranges"][name] = (vmin, vmax)
        if vmin <= 0.0:
            report["violations"].append(f"{name} not strictly positive (min {vmin:.3e})")
        if vmin < lo - 1e-12 or vmax > hi + 1e-12:
            report["violations"].append(
                f"{name} leaves declared bounds [{lo:.6g}, {hi:.6g}]: "
                f"sampled range [{vmin:.6g}, {vmax:.6g}]"
            )

    for name, per_bp in branch_limits(model).items():
        for bp, (left, right) in per_bp.items():
            report["continuity"][(name, bp)] = abs(float(left) - float(right))
    report["passed"] = not report["violations"]
    return report
