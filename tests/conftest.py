from __future__ import annotations

import signal
import traceback
from contextlib import contextmanager

try:
    import resource
except ImportError:  # not a POSIX system: no address-space limit
    resource = None

import pytest

from etskit.lss import label_catalog
from etskit.normal import NormalGraph, from_normal
from etskit.structgen import ClassSpec, generate_structures


# Wall-clock limit of each test's setup and of its call, about ten times the
# slowest ordinary test, so that a search that no longer terminates fails
# the run by name instead of holding it.  ``@pytest.mark.time_limit(s)``
# gives a test another budget; ``extended`` tests have none.
TEST_TIME_LIMIT_S = 120


@contextmanager
def _time_limit(item):
    marker = item.get_closest_marker("time_limit")
    seconds = marker.args[0] if marker else TEST_TIME_LIMIT_S
    if item.get_closest_marker("extended") or not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past its {seconds} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Soft address-space limit of the test process, about four times the peak
# of a whole tier-1 run (64 MB on either kernel, Python 3.11), so that a
# runaway expansion fails its test by name with ``MemoryError`` before it
# takes the host's memory.  It caps this process and the processes it
# starts, and never raises a lower limit already set.
TEST_MEMORY_LIMIT_MB = 256


def pytest_configure(config):
    config.addinivalue_line(
        "markers", f"time_limit(seconds): time budget in place of {TEST_TIME_LIMIT_S} s"
    )
    if resource is not None:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = TEST_MEMORY_LIMIT_MB << 20
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        if soft == resource.RLIM_INFINITY or soft > cap:
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _time_limit(item):
        outcome = yield
    _free_on_memory_error(outcome)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _time_limit(item):
        outcome = yield
    _free_on_memory_error(outcome)


def _free_on_memory_error(outcome):
    """Clear the finished frames of a step that ran out of memory, so that
    what they hold is freed before pytest builds the failure report."""
    excinfo = outcome.excinfo
    if excinfo is not None and isinstance(excinfo[1], MemoryError):
        traceback.clear_frames(excinfo[2])


@pytest.fixture(scope="session")
def catalogs():
    """Memoized labeled catalogs, shared across the whole run."""
    cache = {}

    def get(d_l: int, g: int, a: int, b: int):
        key = (d_l, g, a, b)
        if key not in cache:
            cache[key] = label_catalog(
                generate_structures(ClassSpec(d_l=d_l, g=g, a=a, b=b))
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def ets54_normal():
    """A (5,4) structure for d_l = 4: K5 minus two disjoint edges."""
    return NormalGraph(
        5,
        [(i, j) for i in range(5) for j in range(i + 1, 5)
         if (i, j) not in ((0, 1), (2, 3))],
    )


@pytest.fixture(scope="session")
def ets54(ets54_normal):
    return from_normal(ets54_normal, 4)


@pytest.fixture(scope="session")
def ets62_normal():
    """The (6,2), d_l = 4 structure whose two degree-3 nodes are adjacent."""
    return NormalGraph(
        6,
        [(2, 0), (2, 3), (2, 4), (2, 5), (1, 0), (1, 3), (1, 4),
         (5, 3), (5, 4), (5, 0), (3, 4)],
    )


@pytest.fixture(scope="session")
def prism():
    """Two triangles joined by a matching; a (6,0) structure for d_l = 3."""
    return NormalGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])


@pytest.fixture(scope="session")
def k33():
    """Complete bipartite 3+3; the triangle-free (6,0) structure, d_l = 3."""
    return NormalGraph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])


@pytest.fixture(scope="session")
def growth_chain_graph():
    """A (5,1) structure for d_l = 3 whose expansion chain from the
    triangle {0,1,2} adds node 3 (a (4,2) set), then node 4."""
    normal = NormalGraph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3),
                             (2, 4), (3, 4)])
    return from_normal(normal, 3)


@pytest.fixture(scope="session")
def blocked_chain_graph():
    """A (6,6) structure for d_l = 4 that cannot be grown from its triangle
    {0,1,2} but grows from the 4-cycle {2,3,4,5} via node 0 then node 1."""
    normal = NormalGraph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                             (4, 5), (2, 5), (0, 4), (3, 5)])
    return from_normal(normal, 4)


@pytest.fixture(scope="session")
def nonabsorbing66():
    """A (6,6), d_l = 4 structure with a degree-2 node (two unsatisfied
    checks at that node), hence not absorbing."""
    return NormalGraph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3),
                           (2, 4), (3, 4), (4, 5), (0, 5)])
