"""Quick-turnaround property checks; the acceptance suite reruns them at volume."""

import random

from genprofiles import choice, randint
from propchecks import (
    check_parser_totality,
    check_round_trip,
    check_rule_monotonicity,
    check_table_monotonicity,
)


def test_tables_are_monotone():
    check_table_monotonicity()


def test_rule_monotonicity_sample():
    check_rule_monotonicity(seed=101, count=300)


def test_round_trip_sample():
    check_round_trip(seed=202, count=200)


def test_parser_totality_sample():
    check_parser_totality(seed=303, count=3000)


def test_generator_draws_match_random():
    """The generator's own draws are random.Random's, so a seed keeps naming the same cases."""
    ranges = ((0, 3), (1, 4), (1, 5), (0, 5), (2, 3), (3, 3), (1, 96), (0, 10**6 - 1))
    sequences = ((7,), ("a", "b"), tuple(range(5)), tuple(range(15)))
    for seed in range(20):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(50):
            for a, b in ranges:
                assert randint(ours, a, b) == stdlib.randint(a, b), (seed, a, b)
            for seq in sequences:
                assert choice(ours, seq) == stdlib.choice(seq), (seed, seq)
        assert ours.random() == stdlib.random()
