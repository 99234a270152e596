"""The count model's store of grid-only arrays: reuse, read-only entries, byte cap, threads."""

import concurrent.futures
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinloss import PARAM_NAMES, ParamSet, default_cutoff, model_pnd, pnd


def outputs(result):
    """Probs, tail mass and scores of a JointPND as bytes, for exact comparison."""
    return (
        result.probs.tobytes(),
        result.probs.shape,
        repr(result.tail_mass),
        {name: grid.tobytes() for name, grid in result.scores.items()},
    )


def stored_arrays(store):
    return [array for entry in store._entries.values() for array in entry]


def stored_bytes(store):
    return sum(array.nbytes for array in stored_arrays(store))


calls = st.lists(
    st.tuples(
        st.integers(0, 24),
        st.integers(0, 24),
        st.sampled_from([0.02, 0.3]),
        st.sampled_from([0.05, 0.4]),
    ),
    min_size=1,
    max_size=6,
)


@given(calls=calls)
def test_results_match_a_cleared_store(calls):
    # each cutoff pair runs as drawn, transposed, then again; nu varies per call
    sequence = [
        (cutoff, nu1, nu2)
        for ca, cb, nu1, nu2 in calls
        for cutoff in ((ca, cb), (cb, ca), (ca, cb))
    ]
    got = [
        model_pnd(ParamSet(0.6, 0.45, 0.9, nu1, nu2), cutoff, wrt=PARAM_NAMES)
        for cutoff, nu1, nu2 in sequence
    ]
    for (cutoff, nu1, nu2), result in zip(sequence, got):
        pnd._STORE.clear()
        fresh = model_pnd(ParamSet(0.6, 0.45, 0.9, nu1, nu2), cutoff, wrt=PARAM_NAMES)
        assert outputs(result) == outputs(fresh)


def test_stored_arrays_are_read_only():
    pnd._STORE.clear()
    model_pnd(ParamSet(0.5, 0.6, 0.8, 0.1, 0.2), (6, 9), wrt=PARAM_NAMES)
    arrays = stored_arrays(pnd._STORE)
    # the loss grid's 12 arrays and two Poisson mixing matrices
    assert len(arrays) == 14
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_store_holds_no_more_than_its_cap():
    pnd._STORE.clear()
    theta = ParamSet(0.03, 0.039, 6.0)
    model_pnd(theta)
    model_pnd(ParamSet(0.99, 0.1, 2.0), (1100, 600))
    held = stored_bytes(pnd._STORE)
    assert pnd._STORE.nbytes == held <= pnd.GRID_STORE_BYTES
    # the default grid's entry (about 69 MB) exceeds the cap and is not kept;
    # the (1100, 600) entry (about 23 MB) fits and is, until the transposed
    # grid's entry of the same size evicts it
    assert ("loss", *default_cutoff(theta)) not in pnd._STORE._entries
    assert ("loss", 1100, 600) in pnd._STORE._entries
    model_pnd(ParamSet(0.1, 0.99, 2.0), (600, 1100))
    assert pnd._STORE.nbytes == stored_bytes(pnd._STORE) <= pnd.GRID_STORE_BYTES
    assert list(pnd._STORE._entries) == [("loss", 600, 1100)]


def test_threads_get_the_serial_results(monkeypatch):
    theta = ParamSet(0.39202, 0.38206, 1.3, 0.03419, 0.06568)
    cutoffs = [(ca, cb) for ca in range(8) for cb in range(8)] * 24
    serial = {cutoff: outputs(model_pnd(theta, cutoff, wrt=PARAM_NAMES)) for cutoff in cutoffs}
    # a store too small for the 64 grids evicts on most calls, and a short
    # switch interval interleaves the threads inside its bookkeeping
    store = pnd._GridStore(cap=4 * 1024)
    monkeypatch.setattr(pnd, "_STORE", store)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(
                    lambda c: outputs(model_pnd(theta, c, wrt=PARAM_NAMES)), cutoffs, timeout=60
                )
            )
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial[cutoff] for cutoff in cutoffs]
    assert store.nbytes == stored_bytes(store) <= store.cap
    assert not any(array.flags.writeable for array in stored_arrays(store))
