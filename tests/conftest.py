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
