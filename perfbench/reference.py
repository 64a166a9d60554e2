"""An independent reference for the two decision tables and the seven rules.

The benchmark checks the program's trigger sets and per-target table cells
against this module, so it is written from the documented specification
and never from ``airisk.rules`` or ``airisk.tables``:

* the two 3x3 tables and the damage-class bands as ``airisk tables`` prints
  them and README.md shows them;
* the banding of 1-5 scores (1-2 low, 3 middle, 4-5 high), as the hand
  traces in the acceptance tests state it (coupling 4 is High, 3 is Medium,
  2 is Low; complexity 3 is Moderate, 5 is Complex);
* the seven rule conditions as the ``when:`` lines of ``airisk rules``
  state them.

It reads assessment documents in their JSON object form (plain dicts), so
it shares no types with the package either.  One reading is a judgment of
its own: periodic attention means at least one check a day, so its gaps
never reach "days or longer".
"""

from __future__ import annotations

# System Accident Risk (coupling x interaction complexity), as printed.
ACCIDENT_RISK = {
    "High": {"Linear": "M", "Moderate": "H", "Complex": "C"},
    "Medium": {"Linear": "L", "Moderate": "M", "Complex": "H"},
    "Low": {"Linear": "L", "Moderate": "L", "Complex": "M"},
}

# Damage and Affected Parties (energy level x knowledge gap), as printed.
DAMAGE_PARTY = {
    "high": {"low": "H3", "medium": "H3", "high": "C4"},
    "medium": {"low": "M3", "medium": "M3", "high": "H4"},
    "low": {"low": "L2", "medium": "L2", "high": "M4"},
}

COUPLING_BANDS = ("Low", "Medium", "High")
INTERACTION_BANDS = ("Linear", "Moderate", "Complex")

# Damage classes in rising order, and the default monetary cutoffs (USD)
# at which minor, major, severe and catastrophic begin.
DAMAGE_CLASSES = ("negligible", "minor", "major", "severe", "catastrophic")
DEFAULT_THRESHOLDS = (100.0, 100_000.0, 10_000_000.0, 1_000_000_000.0)

# Letters from the lowest to the highest severity of the L/M/H/C scale.
SEVERITY = "LMHC"

SAFETY_DIMENSIONS = ("autonomy", "goal_complexity", "escape_potential", "anthropomorphization")


def band(score: int) -> int:
    """Band a 1-5 score: 1-2 -> 0, 3 -> 1, 4-5 -> 2."""
    if not 1 <= score <= 5:
        raise ValueError(f"score out of range: {score!r}")
    return 0 if score <= 2 else 1 if score == 3 else 2


def accident_letter(target: dict) -> str:
    coupling = COUPLING_BANDS[band(target["coupling"])]
    interaction = INTERACTION_BANDS[band(target["interaction_complexity"])]
    return ACCIDENT_RISK[coupling][interaction]


def damage_party_code(target: dict) -> str:
    return DAMAGE_PARTY[target["energy_level"]][target["knowledge_gap"]]


def damage_class(max_damage: dict, thresholds=DEFAULT_THRESHOLDS) -> str:
    """The damage class of a max_damage object; undeclared fields count as no harm."""
    minor, major, severe, catastrophic = thresholds
    money = max_damage.get("monetary_usd", 0)
    lives = max_damage.get("lives_at_risk", 0)
    reputation = max_damage.get("reputational", "none")
    if lives > 0 or money >= catastrophic:
        return "catastrophic"
    if money >= severe or reputation == "major":
        return "severe"
    if money >= major:
        return "major"
    if money >= minor or reputation == "minor":
        return "minor"
    return "negligible"


def attention_gap_is_poor(attention: dict) -> bool:
    """Attention gaps are days or longer (periodic attention never is)."""
    return attention["mode"] == "intermittent" and attention["interval"] in ("days", "weeks", "months")


def evaluate(doc: dict, thresholds=DEFAULT_THRESHOLDS) -> tuple[frozenset, tuple]:
    """The triggered rule ids and each target's (accident letter, damage/party code).

    Args:
        doc: a valid assessment document as a JSON object.
        thresholds: (minor, major, severe, catastrophic) monetary cutoffs.
    """
    ind = doc["intervention"]
    targets = doc["targets"]
    cells = tuple((accident_letter(t), damage_party_code(t)) for t in targets)
    classes = [DAMAGE_CLASSES.index(damage_class(t["max_damage"], thresholds)) for t in targets]
    levels = []
    for name in SAFETY_DIMENSIONS:
        dim = doc["safety"][name]
        levels.append((dim["level"], dim.get("projected", dim["level"])))

    fired = set()
    if (
        ind["time_delay"] in ("milliseconds", "seconds")
        and (ind["observability"] <= 2 or attention_gap_is_poor(ind["attention"]))
        and max(classes) > 0
    ):
        fired.add("R1")
    if ind["correctability"] <= 2 and not ind["can_take_offline"]:
        fired.add("R2")
    if any(SEVERITY.index(risk) >= SEVERITY.index("M") for risk, _ in cells):
        fired.add("R3")
    if any(SEVERITY.index(code[0]) >= SEVERITY.index("M") and int(code[1]) >= 3 for _, code in cells):
        fired.add("R4")
    if any(c >= DAMAGE_CLASSES.index("severe") for c in classes):
        fired.add("R5")
    if any(level >= 2 for level, _ in levels):
        fired.add("R6")
    if any(level >= 3 or projected >= 3 for level, projected in levels):
        fired.add("R7")
    return frozenset(fired), cells
