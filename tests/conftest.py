import math
from types import SimpleNamespace

import numpy as np
import pytest

from drivenbath import (Coupling, DrivenSource, OhmicSpectrum, QubitSpec,
                        SystemSpec, lambda_weight)
from drivenbath.green import channel_table
from drivenbath.quadrature import _build_panels, _gl_nodes_weights

DEFAULT_SOURCE = DrivenSource(lambda0=0.01, t_int=100.0)


def make_spec(beta=1.0, alpha=5.0, lambda0=0.01, t_int=100.0,
              coupling=None, omega_gap=0.05, p=1.0):
    qubit = None
    if coupling is not None:
        qubit = QubitSpec(coupling=Coupling(coupling), omega_gap=omega_gap,
                          p_ground=p)
    return SystemSpec(beta=beta, spectrum=OhmicSpectrum(alpha=alpha),
                      source=DrivenSource(lambda0=lambda0, t_int=t_int),
                      qubit=qubit)


def green_pair(spec):
    """The channels of ``spec`` alone, all over ``channel_table([spec]).pair``.

    ``channels(w)`` gives (g_mp, g_pm) at a 1-D node array, the pair
    ``oscillatory_pair`` takes; ``g_mp`` and ``g_pm`` give one channel at
    any shape (a scalar gives a float).  ``edges`` and ``edge_power``
    are the spec's panel metadata.
    """
    table = channel_table([spec])
    rows = np.zeros(1, dtype=np.intp)

    def channels(w):
        g_mp, g_pm = table.pair(w[None], rows, None)
        return g_mp[0], g_pm[0]

    def channel(c):
        def g(omega):
            w = np.asarray(omega, dtype=float)
            total = channels(w.reshape(-1))[c]
            return float(total[0]) if w.ndim == 0 else total.reshape(w.shape)
        return g

    return SimpleNamespace(channels=channels, g_mp=channel(0),
                           g_pm=channel(1), edges=table.edges[0],
                           edge_power=table.edge_powers[0])


def dense_phase_sum(pair, v, source, grid, breakpoints=(),
                    edge_power=1.0, rows=2048):
    """The same sums as oscillatory_pair, one e^{i w v} per (v, node)."""
    panels = _build_panels(grid.omega_max, breakpoints, edge_power)
    nodes, weights = _gl_nodes_weights(panels, float(np.max(np.abs(v))))
    measure = lambda_weight(nodes, source) / (2.0 * math.pi) * weights
    f1, f2 = pair(nodes)
    c = np.stack([measure * f1, measure * f2], axis=1)
    out = np.concatenate([np.exp(1j * np.outer(v[i:i + rows], nodes)) @ c
                          for i in range(0, v.size, rows)])
    return out[:, 0], out[:, 1]


@pytest.fixture
def source():
    return DEFAULT_SOURCE


@pytest.fixture
def pure_bath():
    return make_spec()


@pytest.fixture
def count_points(monkeypatch):
    """Integrand points of the workstats integrals run in the test.

    Every workstats integral is a call of the batched rule, which reports
    the integrand points of each of its rows; this sums them.  Returns a
    function that reads the count so far.
    """
    import drivenbath.workstats as ws
    points = [0]
    integrate = ws.integrate_rows

    def counted(*args, **kwargs):
        result = integrate(*args, **kwargs)
        points[0] += int(result.points.sum())
        return result

    monkeypatch.setattr(ws, "integrate_rows", counted)
    return lambda: points[0]


def dense_drive_integral(f, source, half_width=0.06, n=(1 << 18) + 1):
    """Independent dense-trapezoid oracle for drive-weighted integrals.

    Plain uniform sampling, no panel splitting or substitutions; only
    suitable for integrands without interior singularities.
    """
    from drivenbath import lambda_weight
    om = np.linspace(-half_width, half_width, n)
    vals = lambda_weight(om, source) * np.asarray(f(om)) / (2.0 * np.pi)
    return np.trapezoid(vals, om)
