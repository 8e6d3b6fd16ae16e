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
    psd_spectra,
    reproducing_deviations,
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
    u = np.array([potential[x] for x in g.events], dtype=float)
    return ActionFunction(g, coboundaries(g, u))


def coboundaries(g: FiniteGroupoid, u):
    """The action values u(target) - u(source) of each row of a (T,
    |events|) stack of potentials in event order."""
    src, tgt = g.index_arrays()[:2]
    return u[..., tgt] - u[..., src]


def is_action(s: ActionFunction, tol=DEFAULT_TOL):
    """Exhaustive check of the three action laws; returns (ok, violations)."""
    violations = action_violations(s.groupoid, s.values[None], tol)[0]
    return (not violations), violations


def action_violations(g: FiniteGroupoid, values, tol=DEFAULT_TOL):
    """The violations of the three action laws by each row of a (T, |G|)
    stack of real values, one list per row."""
    ts = g.transitions
    src, tgt, inv, unit = g.index_arrays()
    outer, inner, result = g.composition_index()
    found = [[] for _ in values]
    at_units = values[:, unit]
    for r, x in zip(*np.nonzero(np.abs(at_units) > tol)):
        found[r].append("unit value s(%r) = %.17g != 0"
                        % (ts[unit[x]], at_units[r, x]))
    inversion = values + values[:, inv]
    for r, t in zip(*np.nonzero(np.abs(inversion) > tol)):
        found[r].append("inversion law fails: s(%r) + s(%r) = %.17g"
                        % (ts[t], ts[inv[t]], inversion[r, t]))
    dev = values[:, result] - values[:, outer] - values[:, inner]
    for r, k in zip(*np.nonzero(np.abs(dev) > tol)):
        found[r].append("additivity fails on (%r, %r): deviation %.17g"
                        % (ts[outer[k]], ts[inner[k]], dev[r, k]))
    return found


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
    return CharacteristicFunction(s.groupoid, dynamical_values(
        s.groupoid, s.values[None], normalization, tol)[0])


def dynamical_values(g: FiniteGroupoid, values, normalization="unit-events",
                     tol=DEFAULT_TOL):
    """`dynamical_state` of each row of a (T, |G|) stack of action values;
    raises on the first row that is not an action."""
    for violations in action_violations(g, values, tol):
        if violations:
            raise MathPropertyError("not a valid action: "
                                    + first_of(violations))
    return normalization_scale(normalization, g) * np.exp(1j * values)


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


# entries per part of a stack in `is_reproducing_sweep_trial`: a part's
# convolution holds a few arrays of trials x composable pairs, and its
# eigensolve a few of trials x n x n, so each stays well under a MiB
SWEEP_PART = 1 << 12


def is_reproducing_sweep_trial(g, potentials):
    """The trials of the random-potential sweep that run on the pair
    groupoid ``g``, as one stack: ``potentials`` is a (T, |events|) array,
    one potential per row in event order.  Builds each trial's dynamical
    state under the idempotent scaling and returns two arrays of length
    T: the least eigenvalue of its invariance matrix and its max entrywise
    |phi*phi - phi|.  A pair groupoid has one orbit, so the eigensolve is
    one ``eigh`` call on T n x n matrices; the convolutions, and the
    eigensolves of stacks larger than `SWEEP_PART` entries, go through
    in parts."""
    if not g.is_pair_groupoid():
        raise GqmInputError("potentials define actions on pair groupoids only")
    u = np.asarray(potentials, dtype=float)
    if u.ndim != 2 or u.shape[1] != len(g.events):
        raise GqmInputError("each potential needs one value per event")
    values, deviation = [], []
    step = max(1, SWEEP_PART // g.composition_index()[0].size)
    for k in range(0, len(u), step):
        values.append(dynamical_values(g, coboundaries(g, u[k:k + step]),
                                       "idempotent"))
        deviation.append(reproducing_deviations(g, values[-1]))
    values = np.concatenate(values)
    step = max(1, SWEEP_PART // g.order)
    least = [psd_spectra(g, values[k:k + step])[1]
             for k in range(0, len(values), step)]
    return np.concatenate(least), np.concatenate(deviation)


def recover_potential(s: ActionFunction, base_event=None):
    """On a pair groupoid, the potential u with u(x) = s(base -> x); the
    coboundary-completeness witness for `action_from_potential`."""
    g = s.groupoid
    if not g.is_pair_groupoid():
        raise GqmInputError("potential recovery needs a pair groupoid")
    base = 0 if base_event is None else g.require_event(base_event)
    src, tgt = g.index_arrays()[:2]
    # the one transition base -> x of each event x
    u = np.empty(len(g.events))
    u[tgt[src == base]] = s.values[src == base]
    return dict(zip(g.events, u.tolist()))
