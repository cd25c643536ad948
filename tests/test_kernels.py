import numpy as np

import ldkit as lk
from ldkit import _kernels as K


def test_integrand_guards_past_turning(ho):
    out = K.integrand_values(ho, np.array([0.5, 5.0]), 0.5)
    assert out[0] >= 1.0
    assert out[1] == 0.0


def test_kernel_code_is_the_model(pend):
    # ldbench passes a built-in's kernel_code to dp45_arclength and
    # integrand_values, and reads None as a custom model
    assert pend.kernel_code is pend
    custom = lk.mechanical(lambda q: 0.5 * np.asarray(q) ** 2, lambda q: q, (-2.0, 2.0))
    assert custom.kernel_code is None
