import numpy as np

from ldkit import _kernels as K


def test_integrand_guards_past_turning():
    out = K.integrand_values(K.OSCILLATOR, np.array([0.5, 5.0]), 0.5)
    assert out[0] >= 1.0
    assert out[1] == 0.0
