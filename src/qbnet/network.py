"""Declarative mode networks for charger/battery charging topologies.

A network is a set of bosonic modes, phased bilinear couplings and
coherent drives.  A coupling ``(source, target, g, theta)`` stands for
the Hamiltonian term ``g * exp(i*theta) * source * target^dagger`` plus
its Hermitian conjugate; the drive ``xi`` on a mode adds ``xi * mode``
plus conjugate.  All rates are energy decay rates (the corresponding
amplitude decays at half the rate), all frequencies are in units of the
common mode frequency, and detunings default to zero (every mode
resonant with the drive).

The built-in topologies are two families that differ only in each
battery link's upstream mode, a rule written once, in ``structure``:

* ``cascaded`` -- a chain ``c - b_1 - ... - b_N``.
* ``parallel`` -- a star with every battery tied to the charger.

Both come in four variants.  ``r1`` has direct couplings only.  ``r2``,
``nr`` and ``custom`` insert one lossy intermediate mode per link, with
the link's synthetic flux carried entirely by the phase of the direct
coupling: 0 for ``r2``, -pi/2 for ``nr``, caller-supplied for
``custom``.  Intermediate couplings are fixed at the matched strength
``sqrt(g_b * Gamma / 2)`` with phase 0, so only the loop flux is
physical.

``parameter_tables`` lays out the scalars of many points of one topology
as per-point tables: ``build_network`` fills the structure from one row,
``dynamics.assemble_points`` fills its compiled layout from P rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FAMILIES = ("cascaded", "parallel")
VARIANTS = ("r1", "r2", "nr", "custom")
#: the variants with an intermediate mode per link; they differ only in
#: the direct phases, so they share one layout
WITH_INTERMEDIATES = ("r2", "nr", "custom")
#: the variants whose direct phases are free (``thetas``); nr and r2 fix theirs
WITH_FREE_PHASES = ("r1", "custom")
ROLES = ("charger", "battery", "intermediate")


def wrap_phase(phi: float) -> float:
    """Map an angle to the interval (-pi, pi]."""
    p = math.remainder(phi, 2.0 * math.pi)
    if p <= -math.pi:
        p = math.pi
    return p


@dataclass(frozen=True)
class ModeSpec:
    """One bosonic mode: unique id, role, energy decay rate, detuning."""

    id: str
    role: str
    decay_rate: float
    detuning: float = 0.0


@dataclass(frozen=True)
class CouplingSpec:
    """Phased bilinear coupling between two distinct modes.

    The phase enters the target-mode equation as ``exp(+i*phase)`` and
    the source-mode equation as ``exp(-i*phase)``.
    """

    source: str
    target: str
    strength: float
    phase: float = 0.0


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive of complex amplitude ``amplitude`` on one mode."""

    mode: str
    amplitude: complex


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable value type holding modes, couplings and drives."""

    modes: tuple
    couplings: tuple
    drives: tuple


@dataclass(frozen=True)
class TopologyParams:
    """Parameter bundle selecting one charging scenario.

    Attributes:
        family: "cascaded" or "parallel".
        variant: "r1", "r2", "nr" or "custom".
        n: number of batteries (>= 1).
        g_b: direct coupling strength.
        gamma_c: charger energy decay rate.
        gamma_b: battery decay rates; a scalar is broadcast to all n.
        Gamma: intermediate-mode decay rate (ignored by r1).  Every
            variant needs ``g_b * Gamma`` finite: ``gain_report`` builds
            the matched coupling ``sqrt(g_b * Gamma / 2)`` of ``nr`` and
            ``r2`` from any variant.
        xi: complex drive amplitude on the charger.
        thetas: direct-coupling phases; required for "custom",
            optional for "r1" (defaults to all zero) and ignored by
            "r2"/"nr" which force 0 and -pi/2 respectively.
    """

    family: str
    variant: str
    n: int
    g_b: float
    gamma_c: float
    gamma_b: tuple
    Gamma: float
    xi: complex
    thetas: tuple | None = None

    def __post_init__(self):
        problems = []
        if self.family not in FAMILIES:
            problems.append(f"unknown family {self.family!r}")
        if self.variant not in VARIANTS:
            problems.append(f"unknown variant {self.variant!r}")
        if not isinstance(self.n, int) or self.n < 1:
            problems.append(f"battery count n must be an integer >= 1, got {self.n!r}")
        gamma_b = self.gamma_b
        if isinstance(gamma_b, (int, float)):
            gamma_b = (float(gamma_b),) * max(self.n, 1)
        else:
            gamma_b = tuple(float(g) for g in gamma_b)
            if isinstance(self.n, int) and self.n >= 1 and len(gamma_b) != self.n:
                problems.append(
                    f"gamma_b has {len(gamma_b)} entries for n={self.n} batteries")
        object.__setattr__(self, "gamma_b", gamma_b)
        for name, value in (("g_b", self.g_b), ("gamma_c", self.gamma_c),
                            ("Gamma", self.Gamma)):
            if not math.isfinite(value) or value < 0:
                problems.append(f"{name} must be a finite rate >= 0, got {value!r}")
        if (math.isfinite(self.g_b) and math.isfinite(self.Gamma)
                and not math.isfinite(self.g_b * self.Gamma)):
            problems.append(f"the matched coupling sqrt(g_b * Gamma / 2) overflows "
                            f"at g_b={self.g_b!r}, Gamma={self.Gamma!r}")
        if any(not math.isfinite(g) or g < 0 for g in gamma_b):
            problems.append(f"gamma_b entries must be finite rates >= 0, got {gamma_b}")
        xi = complex(self.xi)
        object.__setattr__(self, "xi", xi)
        if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
            problems.append(f"xi must be finite, got {xi!r}")
        if self.thetas is not None:
            thetas = tuple(float(t) for t in self.thetas)
            object.__setattr__(self, "thetas", thetas)
            if isinstance(self.n, int) and self.n >= 1 and len(thetas) != self.n:
                problems.append(
                    f"thetas has {len(thetas)} entries for n={self.n} batteries")
            if not all(map(math.isfinite, thetas)):
                problems.append(f"thetas entries must be finite, got {thetas}")
        if self.variant == "custom" and self.thetas is None:
            problems.append("variant 'custom' requires thetas")
        if problems:
            raise ValidationError(problems)

    def with_variant(self, variant: str) -> "TopologyParams":
        """Same scenario under another variant (thetas kept for custom/r1)."""
        return dataclasses.replace(self, variant=variant)

    def direct_phases(self) -> tuple:
        """The resolved phase of each direct coupling, link by link."""
        return _direct_phases(self.variant, self.n, self.thetas)

    @property
    def has_intermediates(self) -> bool:
        return self.variant in WITH_INTERMEDIATES


def _direct_phases(variant: str, n: int, thetas) -> tuple:
    if variant == "nr":
        return (-math.pi / 2.0,) * n
    if variant not in WITH_FREE_PHASES or thetas is None:
        return (0.0,) * n
    return tuple(wrap_phase(t) for t in thetas)


def _intermediate_coupling(variant: str, g_b: float, Gamma: float) -> float:
    """The matched ``g_i`` of a variant with intermediates, else 0."""
    if variant not in WITH_INTERMEDIATES:
        return 0.0
    if Gamma <= 0:
        raise ValidationError(
            [f"variant {variant!r} needs Gamma > 0, got {Gamma!r}"])
    return matched_coupling(g_b, Gamma)


def matched_coupling(g_b: float, Gamma: float) -> float:
    """Intermediate coupling strength sqrt(g_b * Gamma / 2).

    This is the strength at which the indirect path through a lossy
    intermediate has the same effective magnitude as the direct
    coupling, which is what permits full backward cancellation.
    """
    if not Gamma > 0:  # NaN included
        raise ValueError(f"Gamma must be > 0, got {Gamma!r}")
    if not g_b >= 0:
        raise ValueError(f"g_b must be >= 0, got {g_b!r}")
    if not math.isfinite(g_b * Gamma):
        raise ValueError(f"the matched coupling sqrt(g_b * Gamma / 2) overflows "
                         f"at g_b={g_b!r}, Gamma={Gamma!r}")
    return math.sqrt(g_b * Gamma / 2.0)


def structure(family: str, intermediates: bool, n: int) -> tuple:
    """``(modes, couplings)`` of a built-in topology, in ``build_network``'s
    order: ``(id, role, rate column)`` per mode and ``(source, target,
    strength column, phase column)`` per coupling, by the columns of
    ``parameter_tables``.  The charger ``c`` comes first, then one direct
    link ``up -> b_k`` per battery, whose upstream mode the family fixes:
    the previous battery in a cascaded chain, the charger in a parallel
    star.  With ``intermediates`` every link gains a mode ``a_k`` coupled
    as ``up -> a_k -> b_k`` at the matched strength, phase 0."""
    modes, couplings = [("c", "charger", 0)], []
    for k in range(1, n + 1):
        up = "c" if k == 1 or family == "parallel" else f"b_{k - 1}"
        if intermediates:
            modes.append((f"a_{k}", "intermediate", 1))
            couplings += [(up, f"a_{k}", 1, 0), (f"a_{k}", f"b_{k}", 1, 0)]
        modes.append((f"b_{k}", "battery", k + 1))
        couplings.append((up, f"b_{k}", 0, k))
    return modes, couplings


def build_network(params: TopologyParams) -> NetworkSpec:
    """The ``structure`` of ``params``' topology filled from its row of
    ``parameter_tables``, with the drive ``xi`` on the charger."""
    rates, strengths, phases = (t[0].tolist() for t in parameter_tables(params)[:3])
    modes, couplings = structure(params.family, params.has_intermediates, params.n)
    return NetworkSpec(
        tuple(ModeSpec(m, role, rates[r]) for m, role, r in modes),
        tuple(CouplingSpec(s, t, strengths[g], phases[p]) for s, t, g, p in couplings),
        (DriveSpec("c", params.xi),))


def _variant_rows(variants) -> list:
    """``(variant, rows)`` per run of equal variants of a ``variant``
    column, ``rows`` its slice; no array of strings is built.  A variant
    that recurs in a later run is resolved again there, to the same
    values."""
    runs, start = [], 0
    for variant, run in itertools.groupby(variants):
        count = len(list(run))
        runs.append((variant, slice(start, start + count)))
        start += count
    return runs


def parameter_tables(params: TopologyParams, **columns) -> tuple:
    """Rates ``[gamma_c, Gamma, *gamma_b]``, strengths ``[g_b, g_i]``,
    phases ``[0, *direct_phases]`` and drives ``xi`` of P points, one row
    each: the values ``build_network`` fills in.  ``columns`` maps a field
    of ``params`` to one (trusted, already valid) value per point, other
    fields are broadcast.  A ``variant`` column may mix variants, each
    run of one variant, and each distinct theta in it, resolved once:
    ``g_i`` is the matched coupling for a variant with intermediates and 0
    for ``r1``, so an ``r1`` point filled into an intermediates layout
    (``dynamics.assemble_points``, when another variant of the column has
    them) keeps its intermediates decoupled and undriven."""
    points = len(next(iter(columns.values()))) if columns else 1
    groups = (_variant_rows(columns["variant"]) if "variant" in columns
              else [(params.variant, slice(None))])
    derived = "g_b" not in columns and "Gamma" not in columns
    rates = np.empty((points, params.n + 2))
    strengths = np.zeros((points, 2))  # g_i stays 0 without intermediates
    phases = np.zeros((points, params.n + 1))
    rates[:] = (params.gamma_c, params.Gamma, *params.gamma_b)
    strengths[:, 0] = params.g_b
    for table, at, field in ((rates, 0, "gamma_c"), (rates, 1, "Gamma"),
                             (rates, slice(2, None), "gamma_b"), (strengths, 0, "g_b")):
        if field in columns:
            table[:, at] = columns[field]
    if not derived and any(variant in WITH_INTERMEDIATES for variant, _ in groups):
        refused = rates[:, 1] <= 0
        for variant, rows in groups:
            if variant not in WITH_INTERMEDIATES:
                refused[rows] = False
        for i in refused.nonzero()[0][:1].tolist():  # the builder's own check and message
            _intermediate_coupling(columns["variant"][i] if "variant" in columns
                                   else params.variant, 0.0, float(rates[i, 1]))
    for variant, rows in groups:
        if variant in WITH_INTERMEDIATES:
            strengths[rows, 1] = (
                _intermediate_coupling(variant, params.g_b, params.Gamma) if derived
                else np.sqrt(strengths[rows, 0] * rates[rows, 1] / 2.0))
        if "thetas" in columns and variant in WITH_FREE_PHASES:
            thetas = np.asarray(columns["thetas"], dtype=float)[rows]
            bits, inverse = np.unique(thetas.view(np.int64), return_inverse=True)
            wrapped = np.array([wrap_phase(t) for t in bits.view(float).tolist()])
            phases[rows, 1:] = wrapped[inverse].reshape(thetas.shape)
        else:
            phases[rows, 1:] = _direct_phases(variant, params.n, params.thetas)
    xi = np.empty(points, dtype=complex)
    xi[:] = columns.get("xi", params.xi)
    return rates, strengths, phases, xi


def validate(spec: NetworkSpec) -> list:
    """Check every NetworkSpec invariant; return one message per violation.

    An empty list means the spec is well formed.  Violations are data,
    not exceptions: callers that need a hard failure can raise
    ``ValidationError(validate(spec))``.
    """
    violations = []
    if not spec.modes:
        violations.append("network has no modes")
    seen = set()
    for m in spec.modes:
        if m.id in seen:
            violations.append(f"duplicate mode id {m.id!r}")
        seen.add(m.id)
        if m.role not in ROLES:
            violations.append(f"mode {m.id!r}: unknown role {m.role!r}")
        if not math.isfinite(m.decay_rate) or m.decay_rate < 0:
            violations.append(
                f"mode {m.id!r}: decay_rate must be finite and >= 0, "
                f"got {m.decay_rate!r}")
        if not math.isfinite(m.detuning):
            violations.append(f"mode {m.id!r}: detuning must be finite")
    ids = {m.id for m in spec.modes}
    pairs = set()
    for c in spec.couplings:
        label = f"coupling {c.source!r}->{c.target!r}"
        if c.source == c.target:
            violations.append(f"{label}: source equals target")
        for end in (c.source, c.target):
            if end not in ids:
                violations.append(f"{label}: references missing mode {end!r}")
        pair = frozenset((c.source, c.target))
        if pair in pairs:
            violations.append(f"{label}: mode pair appears more than once")
        pairs.add(pair)
        if not math.isfinite(c.strength) or c.strength < 0:
            violations.append(f"{label}: strength must be finite and >= 0")
        if not (-math.pi < c.phase <= math.pi):
            violations.append(f"{label}: phase {c.phase!r} outside (-pi, pi]")
    for d in spec.drives:
        if d.mode not in ids:
            violations.append(f"drive on missing mode {d.mode!r}")
        amp = complex(d.amplitude)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            violations.append(f"drive on {d.mode!r}: amplitude not finite")
    return violations
