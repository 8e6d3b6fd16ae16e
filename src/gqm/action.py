"""Action functions and factorizable (dynamical) states.

An action is a real function on transitions that vanishes on units, adds
along compositions, and flips sign under inversion.  Exponentiating an
action gives a pure-phase characteristic function which is always PSD and,
with the idempotent scaling, reproducing.

For quiver-generated systems the action may be specified only on the
generating arrows.  Globally extending it can fail (the potential system
can be overdetermined on cycles); the pairwise decoherence matrix over the
arrows is well-defined regardless, and both routes are provided.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceFunctional, normalization_scale
from .errors import (
    ActionInconsistencyError,
    GqmInputError,
    MathPropertyError,
    first_of,
)
from .groupoid import (
    FiniteGroupoid,
    QuiverSpec,
    pair_label,
    unit_label,
)
from .states import (
    DEFAULT_TOL,
    CharacteristicFunction,
    is_positive_semidefinite,
    reproducing_deviation,
)


@dataclass(eq=False)
class ActionFunction:
    groupoid: FiniteGroupoid
    values: np.ndarray  # real, canonical transition order

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.groupoid.order,):
            raise GqmInputError("action vector length does not match |G|")

    @classmethod
    def from_dict(cls, g, values):
        return cls(g, g.vector(values, float))

    def value(self, label):
        return float(self.values[self.groupoid.index(label)])


@dataclass
class GeneratorAction:
    """Action values on the arrows of a quiver only."""

    quiver: QuiverSpec
    values: dict[str, float]

    def validate(self):
        self.quiver.validate()
        labels = {a[0] for a in self.quiver.arrows}
        missing = labels - set(self.values)
        if missing:
            raise GqmInputError(
                "generator action misses arrows: %s" % ", ".join(sorted(missing))
            )
        extra = set(self.values) - labels
        if extra:
            raise GqmInputError(
                "generator action has unknown arrows: %s"
                % ", ".join(sorted(extra))
            )


def action_from_potential(g: FiniteGroupoid, potential) -> ActionFunction:
    """s(alpha) = u(target) - u(source); the canonical way of producing a
    valid action on a pair groupoid (every action there has this form)."""
    if not g.is_pair_groupoid():
        raise GqmInputError(
            "potentials define actions on pair groupoids only"
        )
    missing = set(g.events) - set(potential)
    if missing:
        raise GqmInputError("potential misses events: %s"
                            % ", ".join(sorted(missing)))
    return _coboundary(g, potential)


def _coboundary(g: FiniteGroupoid, potential) -> ActionFunction:
    """The action u(target) - u(source) of the potential {event: u}."""
    src, tgt = g.index_arrays()[:2]
    u = np.array([potential[x] for x in g.events], dtype=float)
    return ActionFunction(g, u[tgt] - u[src])


def is_action(s: ActionFunction, tol=DEFAULT_TOL):
    """Exhaustive check of the three action laws; returns (ok, violations)."""
    g = s.groupoid
    ts = g.transitions
    src, tgt, inv, unit = g.index_arrays()
    outer, inner, result = g.composition_index()
    v = s.values
    violations = [
        "unit value s(%r) = %.17g != 0" % (ts[unit[x]], v[unit[x]])
        for x in np.flatnonzero(np.abs(v[unit]) > tol)]
    inversion = v + v[inv]
    violations += [
        "inversion law fails: s(%r) + s(%r) = %.17g"
        % (ts[t], ts[inv[t]], inversion[t])
        for t in np.flatnonzero(np.abs(inversion) > tol)]
    dev = v[result] - v[outer] - v[inner]
    violations += [
        "additivity fails on (%r, %r): deviation %.17g"
        % (ts[outer[k]], ts[inner[k]], dev[k])
        for k in np.flatnonzero(np.abs(dev) > tol)]
    return (not violations), violations


def _require_generated(g: FiniteGroupoid, ga: GeneratorAction):
    for label, src, tgt in ga.quiver.arrows:
        expected = unit_label(src) if src == tgt else pair_label(src, tgt)
        if g.aliases.get(label) != expected and label not in g.transition_index:
            raise GqmInputError(
                "groupoid was not generated from this quiver (arrow %r)"
                % label
            )


def extend_generator_action(g: FiniteGroupoid,
                            ga: GeneratorAction) -> ActionFunction:
    """Propagate arrow values to the whole quiver-generated groupoid.

    Succeeds iff a potential u with u(target) - u(source) = value exists for
    every arrow on each component; otherwise raises
    ActionInconsistencyError carrying the obstructing cycle.
    """
    ga.validate()
    _require_generated(g, ga)
    arrows = list(ga.quiver.arrows)

    # solve the potential system by BFS over the arrow graph
    edges = {x: [] for x in ga.quiver.events}
    for label, src, tgt in arrows:
        edges[src].append((label, tgt, +1))
        edges[tgt].append((label, src, -1))

    potential = {}
    parent = {}  # event -> (prev_event, arrow_label, sign)
    for root in ga.quiver.events:
        if root in potential:
            continue
        potential[root] = 0.0
        parent[root] = None
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for label, w, sign in edges[v]:
                step = sign * ga.values[label]
                if w not in potential:
                    potential[w] = potential[v] + step
                    parent[w] = (v, label, sign)
                    queue.append(w)
                    continue
                residual = potential[v] + step - potential[w]
                if abs(residual) > DEFAULT_TOL:
                    cycle = [(label, sign)]
                    cycle += _tree_path(parent, w, root)
                    cycle += [(lab, -sg) for lab, sg in
                              reversed(_tree_path(parent, v, root))]
                    if residual < 0:  # orient the cycle positively
                        residual = -residual
                        cycle = [(lab, -sg) for lab, sg in reversed(cycle)]
                    raise ActionInconsistencyError(cycle, residual)
    return _coboundary(g, potential)


def _tree_path(parent, node, root):
    """Signed arrow path from ``node`` down to ``root`` along the BFS tree."""
    path = []
    while parent[node] is not None:
        prev, label, sign = parent[node]
        path.append((label, -sign))
        node = prev
    return path


def dynamical_state(s: ActionFunction, normalization="unit-events",
                    tol=DEFAULT_TOL) -> CharacteristicFunction:
    """phi(alpha) = c exp(i s(alpha)); idempotent scaling makes it
    reproducing, unit-events scaling makes it normalized."""
    ok, violations = is_action(s, tol)
    if not ok:
        raise MathPropertyError("not a valid action: "
                                + first_of(violations))
    scale = normalization_scale(normalization, s.groupoid)
    return CharacteristicFunction(s.groupoid, scale * np.exp(1j * s.values))


@dataclass
class FactorizabilityReport:
    ok: bool
    violations: list[str]
    unit_modulus: bool  # |phi(alpha)| = 1 corollary on the rescaled phase


def is_factorizable(phi: CharacteristicFunction,
                    tol=DEFAULT_TOL) -> FactorizabilityReport:
    """Check phi(outer∘inner) = phi(outer) phi(inner) and
    phi(alpha^-1) = conj(phi(alpha)) on the phase part (values rescaled so
    units sit at 1); a vanishing unit value is an immediate failure."""
    g = phi.groupoid
    ts = g.transitions
    src, tgt, inv, unit = g.index_arrays()
    outer, inner, result = g.composition_index()
    unit_vals = phi.values[unit]
    zero = np.flatnonzero(unit_vals == 0)
    if zero.size:
        return FactorizabilityReport(
            ok=False,
            violations=["phi(%r) = 0" % ts[unit[zero[0]]]],
            unit_modulus=False,
        )
    # factorizable functions are constant-modulus on units; rescale by the
    # value at the source unit of each transition
    rescaled = phi.values / unit_vals[src]
    dev = np.abs(rescaled[result] - rescaled[outer] * rescaled[inner])
    violations = [
        "factorization fails on (%r, %r): |deviation| = %.3e"
        % (ts[outer[k]], ts[inner[k]], dev[k])
        for k in np.flatnonzero(dev > tol)]
    dev = np.abs(rescaled[inv] - np.conj(rescaled))
    violations += [
        "unitarity fails at %r: |deviation| = %.3e" % (ts[t], dev[t])
        for t in np.flatnonzero(dev > tol)]
    unit_modulus = bool(np.max(np.abs(np.abs(rescaled) - 1.0)) <= tol)
    return FactorizabilityReport(
        ok=not violations, violations=violations, unit_modulus=unit_modulus
    )


def quiver_decoherence(g: FiniteGroupoid, ga: GeneratorAction,
                       normalization="per-transition"
                       ) -> DecoherenceFunctional:
    """The decoherence functional over the arrows of the quiver that
    generated ``g``: entry (a, b) = c delta(t(a), t(b)) exp(i (s(b) - s(a))),
    rows in canonical order (target idx, source idx, label) and c the scale
    of ``normalization`` on ``g``.

    Well-defined even when no global action extension exists: entries only
    use pairwise phase differences of composable-by-target arrow pairs.
    """
    ga.validate()
    _require_generated(g, ga)
    if normalization == "global":
        raise GqmInputError(
            "unknown normalization tag %r for quiver decoherence"
            % normalization
        )
    scale = normalization_scale(normalization, g)
    q = ga.quiver
    ev_ix = {x: i for i, x in enumerate(q.events)}
    arrows = sorted(
        q.arrows, key=lambda a: (ev_ix[a[2]], ev_ix[a[1]], a[0])
    )
    n = len(arrows)
    mat = np.zeros((n, n), dtype=complex)
    for i, (la, _, ta) in enumerate(arrows):
        for j, (lb, _, tb) in enumerate(arrows):
            if ta == tb:
                mat[i, j] = scale * np.exp(
                    1j * (ga.values[lb] - ga.values[la])
                )
    return DecoherenceFunctional(g, mat, normalization,
                                 labels=tuple(a[0] for a in arrows))


def is_reproducing_sweep_trial(g, potential_values):
    """One trial of the random-potential sweep on the pair groupoid ``g``:
    builds the dynamical state of the potential (one value per event, in
    event order) and returns (min eigenvalue of its PSD matrix, max
    entrywise |phi*phi - phi| under the idempotent scaling).  The PSD
    check is one ``eigh`` call on the stacked n x n target blocks."""
    s = action_from_potential(g, dict(zip(g.events, potential_values)))
    phi = dynamical_state(s, normalization="idempotent")
    check = is_positive_semidefinite(phi)
    return check.min_eigenvalue, reproducing_deviation(phi)


def recover_potential(s: ActionFunction, base_event=None):
    """On a pair groupoid, the potential u with u(x) = s(base -> x); the
    coboundary-completeness witness for `action_from_potential`."""
    g = s.groupoid
    if not g.is_pair_groupoid():
        raise GqmInputError("potential recovery needs a pair groupoid")
    base = base_event if base_event is not None else g.events[0]
    g.require_event(base)
    potential = {}
    for x in g.events:
        t = next(iter(g.hom_set(base, x)))
        potential[x] = s.value(t)
    return potential


__all__ = [
    "ActionFunction",
    "FactorizabilityReport",
    "GeneratorAction",
    "action_from_potential",
    "dynamical_state",
    "extend_generator_action",
    "is_action",
    "is_factorizable",
    "is_reproducing_sweep_trial",
    "quiver_decoherence",
    "recover_potential",
]
