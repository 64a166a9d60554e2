"""Quick-turnaround property checks; the acceptance suite reruns them at volume."""

import random

from airisk.cli import main

from genprofiles import choice, randint, random_profile
from propchecks import (
    check_leaf_substitution,
    check_parser_totality,
    check_round_trip,
    check_rule_monotonicity,
    check_table_monotonicity,
    fuzz_document,
)


def test_tables_are_monotone():
    check_table_monotonicity()


def test_rule_monotonicity_sample():
    check_rule_monotonicity(seed=101, count=300)


def test_round_trip_sample():
    check_round_trip(seed=202, count=200)


def test_parser_totality_sample():
    check_parser_totality(seed=303, count=3000)


def test_edge_values_at_the_leaves_give_a_profile_or_a_document_error():
    """Each leaf set to a huge integer, a signed zero, an extreme float, a
    lone surrogate, a control sequence or a wrong type: the parser accepts
    or refuses, and every accepted document renders in all three formats."""
    accepted, rejected = check_leaf_substitution(seed=505, count=4000)
    # Both outcomes occur, so edge values reach the renderers.
    assert accepted > 100 and rejected > 3000, (accepted, rejected)


def test_validate_and_assess_keep_the_exit_code_contract_on_any_input(tmp_path, capsysbinary):
    """In process: validate and assess return 0, 1 or 2 and raise nothing,
    and whenever validate accepts a document, assess renders it in all
    three formats."""
    rng = random.Random(404)
    profiles = [random_profile(rng) for _ in range(20)]
    path = tmp_path / "doc.json"
    statuses = set()
    for i in range(300):
        path.write_bytes(fuzz_document(rng, profiles))
        status = main(["validate", str(path)])
        assert status in (0, 1, 2), f"case {i}: validate returned {status}"
        statuses.add(status)
        for fmt in ("text", "markdown", "machine") if status == 0 else ("text",):
            capsysbinary.readouterr()
            assessed = main(["assess", str(path), "--format", fmt])
            assert assessed in (0, 1, 2), f"case {i}: assess --format {fmt} returned {assessed}"
            assert assessed == 0 or status != 0, f"case {i}: validate accepted, assess --format {fmt} refused"
            out, err = capsysbinary.readouterr()
            assert (out != b"") == (assessed == 0) and b"Traceback" not in err, f"case {i}"
    # Each outcome occurs, so the inputs reach past the JSON layer and the decoder.
    assert statuses == {0, 1, 2}


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
