from dataclasses import replace

import numpy as np
import pytest

from drivenbath import (Coupling, DrivenSource, OhmicSpectrum, QubitSpec,
                        SystemSpec)

DEFAULT_SOURCE = DrivenSource(lambda0=0.01, t_int=100.0)


def make_spec(beta=1.0, alpha=5.0, lc=1.0, lambda0=0.01, t_int=100.0,
              coupling=None, omega_gap=0.05, p=1.0):
    qubit = None
    if coupling is not None:
        qubit = QubitSpec(coupling=Coupling(coupling), omega_gap=omega_gap,
                          p_ground=p)
    return SystemSpec(beta=beta, spectrum=OhmicSpectrum(alpha=alpha, l_c=lc),
                      source=DrivenSource(lambda0=lambda0, t_int=t_int),
                      qubit=qubit)


@pytest.fixture
def source():
    return DEFAULT_SOURCE


@pytest.fixture
def pure_bath():
    return make_spec()


@pytest.fixture
def count_points(monkeypatch):
    """Integrand points of the workstats integrals run in the test.

    Every workstats integrand evaluates the g_mp channel once on its
    whole node array, so counting those nodes counts integrand points.
    Returns a function that reads the count so far.
    """
    import drivenbath.workstats as ws
    points = [0]
    build = ws.green_pair

    def counted(spec):
        pair = build(spec)

        def g_mp(w):
            points[0] += np.size(w)
            return pair.g_mp(w)
        return replace(pair, g_mp=g_mp)

    monkeypatch.setattr(ws, "green_pair", counted)
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
