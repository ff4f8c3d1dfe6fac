"""Fixture: the wall clock read through imported names (``wallclock``)."""

from datetime import datetime as Clock
from time import time


def stamp_imported():
    started = time()
    when = Clock.now()
    return started, when
