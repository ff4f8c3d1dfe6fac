"""Fixture: draws through names imported from ``random`` (``unseeded-random``)."""

from random import Random, random
from random import choice as pick


def draw(items):
    jitter = random()
    item = pick(items)
    generator = Random()
    seeded = Random(42)  # legal: explicit seed
    return jitter, item, generator, seeded
