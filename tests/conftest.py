import pytest

import lrcompress.linalg as linalg_mod


@pytest.fixture(params=["lapack", "numpy"])
def qr_path(request, monkeypatch):
    """Runs a test on each Householder QR path: LAPACK's ?geqrt/?gemqrt in
    numpy's bundled OpenBLAS, and the np.linalg.qr fallback, forced by
    hiding those routines. The LAPACK run skips where numpy has none."""
    if request.param == "numpy":
        monkeypatch.setattr(linalg_mod, "_compact_wy_routines", lambda: None)
    elif linalg_mod._compact_wy_routines() is None:
        pytest.skip("numpy bundles no OpenBLAS with ?geqrt and ?gemqrt")
    return request.param
