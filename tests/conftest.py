"""Fixtures shared across test modules."""
import time
from math import pi

import pytest

from xxzchain.contours import eval_identity_n3, standard_test_functions


@pytest.fixture(scope="session")
def n3_correction_absent():
    """({v: report}, seconds): `eval_identity_n3` of the first standard n=3
    test function at zeta = 0.35 pi, v = 1.5 and 0.5, evaluated once per test
    run, with the time both evaluations took. The function's label enters only
    the report's params."""
    J = standard_test_functions(3)[0]
    t0 = time.perf_counter()
    reports = {v: eval_identity_n3(J, v, 0.35 * pi) for v in (1.5, 0.5)}
    return reports, time.perf_counter() - t0
