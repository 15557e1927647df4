import math
import os
import threading
from array import array
from contextlib import contextmanager, suppress

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


def ulps(x, n):
    """x moved n ulps (n in -1, 0, 1)."""
    return x if n == 0 else math.nextafter(x, math.copysign(math.inf, n))


def heuristic_table(entries):
    """Ranked (x, f) entries as a HeuristicModel table: (codes, ratios)."""
    return [x for x, _f in entries], array("d", [f for _x, f in entries])


# Eight 2-dimensional items used across oracle and sampling tests.
D0_ROWS = [(1, 1), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1), (2, 1), (1, 2)]


@pytest.fixture
def d0_handle():
    from subcubehh.stream_io import from_items

    h = from_items(D0_ROWS)
    h.replay(lambda _i, _c: None)
    return h


def file_and_rows(path, rows, class_col=None):
    """Two frozen handles on the same `rows`: one opened on them written
    to `path` by csv.writer, parsed by the file paths, and one built by
    from_rows on their tokens, parsed by the row path."""
    import csv

    from subcubehh.stream_io import from_rows, open_dataset

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with open(path, newline="") as fh:
        tokens = list(csv.reader(fh))
    handles = [open_dataset(path, class_col=class_col), from_rows(tokens, class_col=class_col)]
    for h in handles:
        h.replay(lambda _c, _z: None)
    return handles


def is_dictionary_int(h, coord, x):
    """True when code x of feature coordinate `coord` is the handle's
    dictionary's own int object, not an equal copy."""
    return x is h.code(coord, h.decode(coord, x))


@contextmanager
def fifo_fed(path, data):
    """A FIFO made at `path` that a daemon thread fills with the bytes
    `data` once a reader opens it. On exit a writer still blocked in its
    open is let go by a reader that opens and closes at once, and the
    thread is joined with a timeout, so no test can hang on the FIFO."""
    os.mkfifo(path)

    def write():
        with suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        if writer.is_alive():
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()
