"""Golden runs: final results of three seeded tracking runs, pinned.

The values were recorded with the scipy-based MAP update that preceded the
current numpy-only one, so a speed-up that changes results fails here.  The
tolerance is the one ``perfbench`` gates its reference runs with; the
rounding differences between the two implementations are about 1e-9.
"""

import numpy.testing as npt
import pytest

import ssue

ATOL = 1e-6

GOLDEN = {
    42: (1, [3.017348213391037e-07, 0.9956215384618234, 0.004378159803355214],
         -0.06090208030353497),
    1000: (1, [2.0155952102859774e-06, 0.9999146414139298, 8.334299085999098e-05],
           -0.05427726386394226),
    1001: (1, [1.1885258636240809e-05, 0.9999451862290452, 4.2928512318616566e-05],
           -0.05212219010684625),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_final_results_match_recorded_run(seed):
    identified, mu, delta_hat = GOLDEN[seed]
    record = ssue.run_estimation(ssue.tracking_preset(seed=seed))
    assert record.identified[-1] == identified
    npt.assert_allclose(record.mu[-1], mu, rtol=0, atol=ATOL)
    npt.assert_allclose(record.fused_means[-1, 0], delta_hat, rtol=0, atol=ATOL)
