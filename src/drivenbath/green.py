"""Frequency-domain real-time Green-function pairs.

The two channels (i G~^{+-}, i G~^{-+}) are evaluated at any node array
the caller hands in, so no channel is ever sampled on a fixed grid.
Every channel is a sum of terms weight * S(w - shift) * occ(beta (w - shift))
over one Ohmic density S, one term per shift: 0 for the bare bath, +D and
-D with a qubit at gap D.  The g_mp and g_pm terms at one shift share its
support mask and S(w - shift), formed once.  The couplings differ only in
the quantum statistics of the occupations, kept in one table.  Each term
is exactly zero for w - shift <= 0 (stability support of the bath), and no
growing exponential is ever evaluated: the overflow-prone textbook forms
e^{bx} n_BE(x) and e^{bx} n_FD(x) are written as 1/(1-e^{-bx}) and
1/(1+e^{-bx}).

A :class:`ChannelTable` holds beta, alpha, the gap and p of a batch of
specs as arrays, one value per spec, and evaluates both channels of every
line of a node array at its own spec's values in one ``pair`` call; it is
the only way to evaluate the channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import Coupling, SystemSpec
from .quadrature import power


def _logistic(x: np.ndarray) -> np.ndarray:
    """1/(1 + e^{-x}); where e^{-x} overflows the result is exactly 0."""
    return 1.0 / (1.0 + np.exp(-x))


def _emission(s, bx):
    return s / (-np.expm1(-bx))


def _absorption(s, bx):
    return s / np.expm1(bx)


def _particle(s, bx):
    return s * _logistic(-bx)


def _majorana(s, bx):
    return 0.5 * s


def _majorana_damped(s, bx):
    return 0.5 * s * np.exp(-bx)


#: occupation of each channel term, as (density S, beta x) -> weighted
#: density at x = w - shift > 0, for the channel densities (s1, s2) of
#: g_mp and their damped forms (d1, d2) = e^{-bx} (s1, s2) of g_pm.  Spin
#: is Bose emission/absorption; fermion splits S into quasiparticle
#: (n_FD) and quasihole (1 - n_FD) parts; topological is half of S at
#: every temperature.  The bare bath is bosonic: it takes the spin s1/d1.
_OCCUPATIONS = {
    Coupling.SPIN: (_emission, _emission, _absorption, _absorption),
    Coupling.FERMION: (
        _particle,
        lambda s, bx: s * _logistic(bx),
        # e^{-bx} n_FD(x) = e^{-2bx}/(1+e^{-bx})
        lambda s, bx: s * np.exp(-2.0 * bx) / (1.0 + np.exp(-bx)),
        _particle),
    Coupling.TOPOLOGICAL: (_majorana, _majorana, _majorana_damped,
                           _majorana_damped),
}


#: rows of ``ChannelTable.params``: beta, alpha and the density's norm,
#: then the weights of the (g_mp, g_pm) terms at each shift, then the
#: shifts
_BETA, _ALPHA, _NORM, _WEIGHTS = 0, 1, 2, 3


@dataclass(frozen=True)
class ChannelTable:
    """The channel terms of a batch of specs, one column per spec.

    The specs share the coupling (or the bare bath); ``params`` holds
    beta, alpha, the Ohmic norm, the weights and the shifts as rows with
    one value per spec.  Each channel has one term per shift: at
    shift k, g_mp takes ``occupations[k][0]`` and g_pm
    ``occupations[k][1]``, so both terms share the shift's support mask
    and its density S(w - shift).  ``edges`` holds each spec's support
    edges (candidate kinks), where quadrature splits its panels, and
    ``edge_powers`` the power m of the map w = e +/- t^m by which both
    rules reach them (see :func:`_edge_power`).
    """

    params: np.ndarray
    occupations: tuple[tuple[Callable, Callable], ...]
    edges: tuple[tuple[float, ...], ...]
    edge_powers: tuple[float, ...]

    def beta(self, rows: np.ndarray):
        """beta of the lines of ``rows`` (ascending) as a column, or as a
        float when they all belong to one spec."""
        if rows[0] == rows[-1]:
            return float(self.params[_BETA, rows[0]])
        return self.params[_BETA, rows][:, None]

    def pair(self, omega: np.ndarray, rows: np.ndarray,
             near) -> tuple[np.ndarray, np.ndarray]:
        """(g_mp, g_pm) at ``omega`` of shape (k, m), whose line i belongs
        to spec ``rows[i]``; ``rows`` is ascending.

        ``near`` is None or the adaptive rule's (edge, offset): a (k, 1)
        column of the support edge each line's panel maps (NaN where
        none) and the exact offset omega - edge of every node.  A term
        whose shift is its line's edge takes x = offset, every digit of
        which survives next to a nonzero edge.
        """
        if rows[0] == rows[-1]:
            params = self.params[:, rows[0]].tolist()
        else:
            params = list(self.params[:, rows])
            if (params[_ALPHA] == params[_ALPHA][0]).all():
                params[_ALPHA] = float(params[_ALPHA][0])
        # an occupation overflowing at huge beta x takes its intended
        # limit (s/inf -> 0); the support mask keeps beta x positive
        with np.errstate(over="ignore", under="ignore"):
            return self._channels(omega, params, near)

    def _channels(self, omega: np.ndarray, params, near) -> tuple:
        """(g_mp, g_pm) at ``omega`` (k, m); a row of ``params`` is a float
        shared by all nodes or holds one value per line of ``omega``.
        With ``near`` = (edge, offset), x = w - shift is the offset on the
        lines whose mapped edge is that shift (see :meth:`pair`)."""
        m = omega.shape[1]
        w = omega.reshape(-1)
        totals = [None, None]
        n_shifts = len(self.occupations)
        for k, occupations in enumerate(self.occupations):
            shift = params[_WEIGHTS + 2 * n_shifts + k]
            if not isinstance(shift, float):
                shift = shift[:, None]
                x = (omega - shift).reshape(-1)
            else:
                x = w - shift
            if near is not None:
                edge, offset = near
                np.copyto(x.reshape(omega.shape), offset,
                          where=edge == shift)
            on = x > 0.0
            n_on = np.count_nonzero(on)
            if not n_on:
                continue
            # quadrature panels end at the support edges, so a shift is
            # mostly on or off for a whole call
            partial = n_on < x.size
            if partial:
                x = x[on]
            # the shift's values per node, made for it alone; floats stay
            node = [*params[:_WEIGHTS], *params[_WEIGHTS + 2 * k:][:2]]
            if not isinstance(node[0], float):
                lines = np.flatnonzero(on) // m if partial else None
                node = [a if isinstance(a, float) else
                        a.repeat(m) if lines is None else a[lines]
                        for a in node]
            beta, alpha, norm, *weights = node
            # Ohmic density 2 x^a e^{-x^2} / Gamma((1+a)/2), in units of
            # the cutoff length
            s = norm * power(x, alpha) * np.exp(-x * x)
            bx = beta * x
            del x  # large in a 128-row call; the terms need s and bx
            for i, weight in enumerate(weights):
                term = weight * occupations[i](s, bx)
                if partial:
                    full = np.zeros(w.shape)
                    full[on] = term
                    term = full
                totals[i] = term if totals[i] is None else totals[i] + term
        return tuple((np.zeros(w.shape) if total is None else total)
                     .reshape(omega.shape) for total in totals)


def _edge_power(alpha: float) -> float:
    """The power m of the map w = e +/- t^m at a support edge e.

    Next to an edge, at x = w - e -> 0, every channel term is a power
    series in x times x^(alpha - 1) (Bose occupations ~ 1/(beta x)) or
    x^alpha.  Below alpha 1, m = 2/alpha makes the integrable singularity
    x^(alpha - 1) dx smooth in t.  At any other non-integer alpha the
    derivatives are singular like x^(alpha - floor(alpha)); m = 2 turns
    x^g dx into 2 t^(2g + 1) dt, with more than twice as many bounded
    derivatives, so the adaptive rule bisects toward the edge far fewer
    times.  An integer alpha is smooth on each side: m = 1, no map.
    2/alpha is computed as 2/(1 + (alpha - 1)), which can differ in the
    last bit below alpha 1/2; the sub-Ohmic nodes are pinned to it.
    """
    if alpha < 1.0:
        return 2.0 / (1.0 + (alpha - 1.0))
    return 1.0 if float(alpha).is_integer() else 2.0


def channel_table(specs: Sequence[SystemSpec]) -> ChannelTable:
    """The channel table of ``specs``, which share one coupling.

    Bare bath: g_mp = S_b(w) = S(w)/(1 - e^{-bw}) and g_pm = e^{-bw} S_b(w),
    which satisfy detailed balance g_mp = e^{bw} g_pm on w > 0.  With a
    qubit at gap D and ground population p, from the occupations' (s1,
    s2, d1, d2):

        g_mp(w) = p s1(w - D) + (1-p) s2(w + D)
        g_pm(w) = p d1(w + D) + (1-p) d2(w - D)

    Both are affine in p with coefficients evaluated identically, so the
    p-mixture identity holds to the bit level.
    """
    qubit = specs[0].qubit
    if any((s.qubit is None) != (qubit is None)
           or (qubit is not None and s.qubit.coupling is not qubit.coupling)
           for s in specs):
        raise ValueError("a channel table needs one coupling")
    alpha = [s.spectrum.alpha for s in specs]
    if qubit is None:
        s1, _, d1, _ = _OCCUPATIONS[Coupling.SPIN]
        occupations = ((s1, d1),)
        gaps = [0.0] * len(specs)
        terms = [[1.0] * len(specs)] * 2 + [gaps]
    else:
        s1, s2, d1, d2 = _OCCUPATIONS[qubit.coupling]
        # s2 and d1 at w + D, then s1 and d2 at w - D
        occupations = ((s2, d1), (s1, d2))
        p = np.array([s.qubit.p_ground for s in specs])
        gaps = [s.qubit.omega_gap for s in specs]
        gap = np.array(gaps)
        terms = [1.0 - p, p, p, 1.0 - p, -gap, gap]
    norm = [2.0 / math.gamma((1.0 + a) / 2.0) for a in alpha]
    return ChannelTable(
        params=np.array([[s.beta for s in specs], alpha, norm, *terms]),
        occupations=occupations,
        edges=tuple((0.0,) if g == 0.0 else (-g, g) for g in gaps),
        edge_powers=tuple(map(_edge_power, alpha)))
