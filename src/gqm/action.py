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

from . import decoherence
from .errors import (
    ActionInconsistencyError,
    GqmInputError,
    MathPropertyError,
    first_of,
)
from .groupoid import FiniteGroupoid, beyond, intake, real
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
        self.values = intake(self.values, float, (self.groupoid.order,),
                             "action vector length does not match |G|",
                             "action values")

    @classmethod
    def from_dict(cls, g, values):
        return cls(g, g.vector(values, float))

    def value(self, label):
        return float(self.values[self.groupoid.index(label)])


@dataclass
class GeneratorAction:
    """Action values on the arrows of a quiver, by arrow label; the arrows
    are those of the groupoid it generates (`from_quiver`'s aliases)."""

    values: dict[str, float]

    def __post_init__(self):
        self.values = {label: real(value, "action on %r" % label)
                       for label, value in self.values.items()}

    def arrows(self, g: FiniteGroupoid):
        """(labels, src, tgt) of the arrows of the quiver that generated
        ``g``, in arrow order: their labels and the event indices of their
        endpoints.  Raises unless ``values`` names exactly these arrows."""
        labels = tuple(g.aliases)
        for fault, names in (("misses", set(labels) - set(self.values)),
                             ("has unknown", set(self.values) - set(labels))):
            if names:
                raise GqmInputError("generator action %s arrows: %s"
                                    % (fault, ", ".join(sorted(names))))
        k = np.array([g.index(label) for label in labels], dtype=np.intp)
        src, tgt = g.index_arrays()[:2]
        return labels, src[k], tgt[k]


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
    return ActionFunction(g, coboundaries(g, np.array(
        [real(potential[x], "potential at %r" % x) for x in g.events])))


def coboundaries(g: FiniteGroupoid, u):
    """The actions u(target) - u(source) of a (T, |events|) stack of
    potentials u in event order; an overflow is an input error."""
    src, tgt = g.index_arrays()[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        values = u[..., tgt] - u[..., src]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise GqmInputError("the action on %r overflows: u(target) - "
                            "u(source) is not finite"
                            % g.transitions[bad[0] % g.order])
    return values


def is_action(s: ActionFunction, tol=DEFAULT_TOL):
    """Exhaustive check of the three action laws; returns (ok, violations).
    A sum or difference of finite values past the float range reads
    +-inf, so it fails its law."""
    g, values = s.groupoid, s.values
    ts = g.transitions
    inv, unit = g.index_arrays()[2:]
    with np.errstate(over="ignore"):
        inversion = values + values[inv]
        violations = ["unit value s(%r) = %.17g != 0" % (ts[x], values[x])
                      for x in unit[beyond(np.abs(values[unit]), tol)]]
        violations += ["inversion law fails: s(%r) + s(%r) = %.17g"
                       % (ts[t], ts[inv[t]], inversion[t])
                       for t in beyond(np.abs(inversion), tol)]
        for outer, inner, result in g.composition_parts(1):
            dev = values[result] - values[outer] - values[inner]
            violations += ["additivity fails on (%r, %r): deviation %.17g"
                           % (ts[outer[k]], ts[inner[k]], dev[k])
                           for k in beyond(np.abs(dev), tol)]
    return (not violations), violations


def extend_generator_action(g: FiniteGroupoid,
                            ga: GeneratorAction) -> ActionFunction:
    """Propagate arrow values to the whole quiver-generated groupoid.

    Succeeds iff a potential u with u(target) - u(source) = value exists for
    every arrow on each component; otherwise raises
    ActionInconsistencyError carrying the obstructing cycle.
    """
    labels, src, tgt = ga.arrows(g)

    # solve the potential system by BFS over the arrow graph
    edges = [[] for _ in g.events]
    for label, x, y in zip(labels, src.tolist(), tgt.tolist()):
        edges[x].append((label, y, +1))
        edges[y].append((label, x, -1))

    potential = [None] * len(g.events)
    parent = [None] * len(g.events)  # event -> (prev_event, arrow, sign)
    for root in range(len(g.events)):
        if potential[root] is not None:
            continue
        potential[root] = 0.0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for label, w, sign in edges[v]:
                step = sign * ga.values[label]
                if potential[w] is None:
                    potential[w] = potential[v] + step
                    if not np.isfinite(potential[w]):
                        raise GqmInputError("the potential at %r overflows"
                                            % g.events[w])
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
    return ActionFunction(g, coboundaries(g, np.array(potential)))


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
        raise MathPropertyError("not a valid action: " + first_of(violations))
    return CharacteristicFunction(s.groupoid, decoherence.normalization_scale(
        normalization, s.groupoid) * np.exp(1j * s.values))


@dataclass
class FactorizabilityReport:
    ok: bool
    violations: list[str]
    unit_modulus: bool  # |phi(alpha)| = 1 corollary on the rescaled phase


def _real_quotient(z, m):
    """z / m for complex z and real m > 0, as two real quotients."""
    return (z[:, None].view(float) / m[:, None]).view(complex)[:, 0]


def is_factorizable(phi: CharacteristicFunction,
                    tol=DEFAULT_TOL) -> FactorizabilityReport:
    """Check phi(outer∘inner) = phi(outer) phi(inner) and
    phi(alpha^-1) = conj(phi(alpha)) on the phase part (values rescaled so
    units sit at 1); a vanishing unit value is an immediate failure."""
    g = phi.groupoid
    ts = g.transitions
    src, tgt, inv, unit = g.index_arrays()
    unit_vals = phi.values[unit]
    for x in unit[unit_vals == 0][:1]:
        return FactorizabilityReport(ok=False, violations=[
            "phi(%r) = 0" % ts[x]], unit_modulus=False)
    # factorizable functions are constant-modulus on units; rescale by u at
    # the source unit, in real quotients by |u| (a complex quotient overflows
    # on tiny u); each value that is then not finite is one violation
    u = unit_vals[src]
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled = _real_quotient(
            phi.values * np.conj(_real_quotient(u, np.abs(u))), np.abs(u))
        fine = np.isfinite(rescaled)  # the laws are read on these only
        violations = ["phi(%r) is not finite when rescaled" % ts[t]
                      for t in np.flatnonzero(~fine)]
        for outer, inner, result in g.composition_parts(1):
            dev = np.where(fine[outer] & fine[inner] & fine[result], np.abs(
                rescaled[result] - rescaled[outer] * rescaled[inner]), 0)
            violations += [
                "factorization fails on (%r, %r): |deviation| = %.3e"
                % (ts[outer[k]], ts[inner[k]], dev[k])
                for k in beyond(dev, tol)]
        dev = np.where(fine & fine[inv],
                       np.abs(rescaled[inv] - np.conj(rescaled)), 0)
        violations += [
            "unitarity fails at %r: |deviation| = %.3e" % (ts[t], dev[t])
            for t in beyond(dev, tol)]
        unit_modulus = not beyond(np.abs(np.abs(rescaled) - 1.0), tol).size
    return FactorizabilityReport(ok=not violations, violations=violations,
                                 unit_modulus=unit_modulus)


def quiver_decoherence(g: FiniteGroupoid, ga: GeneratorAction,
                       normalization="per-transition"
                       ) -> decoherence.DecoherenceFunctional:
    """The decoherence functional over the arrows of the quiver that
    generated ``g``: entry (a, b) = c delta(t(a), t(b)) exp(i (s(b) - s(a))),
    rows in canonical order (target idx, source idx, label) and c the scale
    of ``normalization`` on ``g``.

    Well-defined even when no global action extension exists: entries only
    use pairwise phase differences of composable-by-target arrow pairs.
    """
    labels, src, tgt = ga.arrows(g)
    if normalization == "global":
        raise GqmInputError("normalization tag 'global' is not defined "
                            "for the arrow-level decoherence of a quiver")
    scale = decoherence.normalization_scale(normalization, g)
    order = sorted(range(len(labels)),
                   key=lambda k: (tgt[k], src[k], labels[k]))
    labels = tuple(labels[k] for k in order)
    v = np.array([ga.values[label] for label in labels], dtype=float)
    same = tgt[order][:, None] == tgt[order]
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.where(same, v - v[:, None], 0.0)  # s(b) - s(a) at (a, b)
    bad = np.argwhere(~np.isfinite(diff))
    if bad.size:
        a, b = bad[0]
        raise GqmInputError("the action difference s(%r) - s(%r) is not "
                            "finite" % (labels[b], labels[a]))
    # + 0.0 turns a -0.0 into +0.0 and leaves every other float as it is:
    # an imaginary part that underflows under the scale comes out +0.0, as
    # in the scalar product c * exp(i d), whichever order numpy's complex
    # loop multiplies in
    return decoherence.DecoherenceFunctional(
        g, np.where(same, scale * np.exp(1j * diff), 0) + 0.0, normalization,
        labels=labels)


def is_reproducing_sweep_trial(g, potentials):
    """The trials of the random-potential sweep that run on the pair
    groupoid ``g``, as one stack: ``potentials`` is a (T, |events|) array,
    one potential per row in event order.  Each trial's state is the
    idempotent phase c exp(i s) of the coboundary s of its potential, an
    action by construction, so no action-law pass runs.  Returns two
    arrays of length T: the least eigenvalue of each state's invariance
    matrix and its max entrywise |phi*phi - phi|, both read on one stack
    of T n x n blocks (a pair groupoid has one orbit)."""
    if not g.is_pair_groupoid():
        raise GqmInputError("potentials define actions on pair groupoids only")
    u = intake(potentials, float, (None, len(g.events)),
               "each potential needs one value per event", "potentials")
    values = decoherence.normalization_scale("idempotent", g) * np.exp(
        1j * coboundaries(g, u))
    return psd_spectra(g, values)[1], reproducing_deviations(g, values)


def recover_potential(s: ActionFunction):
    """On a pair groupoid, the potential u with u(x) = s(e -> x), e the
    first event; the coboundary-completeness witness for
    `action_from_potential`."""
    g = s.groupoid
    if not g.is_pair_groupoid():
        raise GqmInputError("potential recovery needs a pair groupoid")
    src, tgt = g.index_arrays()[:2]
    # the one transition e -> x of each event x
    u = np.empty(len(g.events))
    u[tgt[src == 0]] = s.values[src == 0]
    return dict(zip(g.events, u.tolist()))
