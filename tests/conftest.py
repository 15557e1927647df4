import pytest
from hypothesis import HealthCheck, settings

# Deterministic property tests: same examples on every run.
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


# Eight 2-dimensional items used across oracle and sampling tests.
D0_ROWS = [(1, 1), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1), (2, 1), (1, 2)]


@pytest.fixture
def d0_handle():
    from subcubehh.stream_io import from_items

    h = from_items(D0_ROWS)
    h.replay(lambda _i, _c: None)
    return h


def cached_and_spilled(path, rows, class_col=None):
    """Two frozen handles on `rows` written to `path`: one keeping its
    spill in memory, one in the temporary file its freezing replay wrote."""
    import csv

    from subcubehh.stream_io import open_dataset

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    handles = [open_dataset(path, class_col=class_col, cache_items=c) for c in (True, False)]
    for h in handles:
        h.replay(lambda _c, _z: None)
    assert handles[1]._spill is not None
    return handles


def is_dictionary_int(h, coord, x):
    """True when code x of feature coordinate `coord` is the handle's
    dictionary's own int object, not an equal copy."""
    return x is h.code(coord, h.decode(coord, x))
