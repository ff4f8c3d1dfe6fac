"""Fixture: reads the wall clock (the ``wallclock`` rule must flag it)."""

import time
from datetime import datetime


def stamp():
    started = time.time()
    when = datetime.now()
    measured = time.perf_counter()  # legal here: not a protocol package
    return started, when, measured


def stamp_allowed():
    return time.time()  # static: allow
