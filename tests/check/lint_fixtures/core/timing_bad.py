"""Fixture: ad-hoc timers inside a protocol package (``adhoc-timing``)."""

import time
from time import process_time


def measure():
    started = time.perf_counter()
    ticked = time.monotonic()
    burned = process_time()
    return started, ticked, burned


def measure_allowed():
    return time.perf_counter()  # static: allow
