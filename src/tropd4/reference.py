"""Published reference values the pipeline reproduces and cross-checks.

These tables pin down the expected outcome of every stage: the 16 ray
coordinates with their conventional labels, the three-column dictionary
between rays, almost positive roots, and chord pairs, the type assignment
of all 48 maximal cones, the apexes of the two bipyramid cones, and the
incidence between the 7 combinatorial cluster classes and the 6 realized
plane types.
"""

from __future__ import annotations

RAY_COORDS = {
    "r1": (0, 0, 1, 0),
    "r2": (0, 0, -1, 0),
    "r3": (1, 0, 0, 0),
    "r4": (1, 0, -1, 0),
    "r5": (-1, 0, 0, 0),
    "r6": (0, 0, 0, 1),
    "r7": (-1, 0, 0, 1),
    "r8": (0, 0, 0, -1),
    "r9": (0, 0, 1, -1),
    "r10": (1, 0, 0, -1),
    "r11": (0, 1, 0, 0),
    "r12": (0, 1, 0, -1),
    "r13": (0, 1, 1, -1),
    "r14": (0, -1, 0, 0),
    "r15": (1, -1, 0, 0),
    "r16": (1, -1, -1, 0),
}

LABEL_OF_RAY = {v: k for k, v in RAY_COORDS.items()}

# ray label -> (root coefficients over alpha_1..alpha_4, chord pair text)
PSI_TABLE = {
    "r1": ((-1, 0, 0, 0), "13"),
    "r2": ((1, 1, 0, 0), "02b"),
    "r3": ((0, 0, 1, 0), "3R"),
    "r4": ((1, 1, 1, 0), "2R"),
    "r5": ((0, 0, -1, 0), "0L"),
    "r6": ((0, 1, 1, 0), "1R"),
    "r7": ((0, 1, 0, 0), "01b"),
    "r8": ((1, 1, 0, 1), "2L"),
    "r9": ((0, 0, 0, 1), "3L"),
    "r10": ((1, 1, 1, 1), "23b"),
    "r11": ((0, 0, 0, -1), "0R"),
    "r12": ((1, 0, 0, 0), "02"),
    "r13": ((0, -1, 0, 0), "03"),
    "r14": ((0, 1, 0, 1), "1L"),
    "r15": ((0, 1, 1, 1), "13b"),
    "r16": ((1, 2, 1, 1), "12b"),
}

PLANE_TYPES = ("EEEG", "EEFFa", "EEFFb", "EEFG", "EFFG", "FFFGG")

# Type assignment of the 48 maximal cones, by ray label sets.
TABLE1 = {
    "EEEG": (
        ("r3", "r9", "r10", "r12"),
        ("r2", "r6", "r14", "r16"),
        ("r3", "r9", "r12", "r13"),
        ("r2", "r6", "r7", "r14"),
    ),
    "EEFFa": (
        ("r3", "r4", "r6", "r15"),
        ("r1", "r3", "r6", "r11"),
        ("r2", "r5", "r8", "r12"),
        ("r2", "r5", "r11", "r12"),
        ("r1", "r3", "r6", "r15"),
        ("r1", "r5", "r9", "r14"),
        ("r2", "r4", "r8", "r12"),
        ("r3", "r4", "r6", "r11"),
        ("r5", "r8", "r9", "r14"),
        ("r8", "r9", "r14", "r15"),
        ("r2", "r4", "r11", "r12"),
        ("r1", "r9", "r14", "r15"),
    ),
    "EEFFb": (
        ("r2", "r5", "r8", "r14"),
        ("r1", "r3", "r9", "r15"),
        ("r2", "r4", "r6", "r11"),
        ("r5", "r8", "r9", "r12"),
        ("r1", "r6", "r14", "r15"),
        ("r3", "r4", "r11", "r12"),
    ),
    "EEFG": (
        ("r5", "r9", "r12", "r13"),
        ("r3", "r9", "r10", "r15"),
        ("r3", "r4", "r10", "r12"),
        ("r3", "r11", "r12", "r13"),
        ("r1", "r3", "r9", "r13"),
        ("r6", "r14", "r15", "r16"),
        ("r1", "r6", "r7", "r14"),
        ("r2", "r8", "r14", "r16"),
        ("r2", "r5", "r7", "r14"),
        ("r8", "r9", "r10", "r12"),
        ("r2", "r4", "r6", "r16"),
        ("r2", "r6", "r7", "r11"),
    ),
    "EFFG": (
        ("r8", "r9", "r10", "r15"),
        ("r1", "r5", "r9", "r13"),
        ("r1", "r5", "r7", "r14"),
        ("r2", "r4", "r8", "r16"),
        ("r1", "r3", "r11", "r13"),
        ("r2", "r5", "r7", "r11"),
        ("r8", "r14", "r15", "r16"),
        ("r3", "r4", "r10", "r15"),
        ("r4", "r6", "r15", "r16"),
        ("r5", "r11", "r12", "r13"),
        ("r1", "r6", "r7", "r11"),
        ("r4", "r8", "r10", "r12"),
    ),
    "FFFGG": (
        ("r4", "r8", "r10", "r15", "r16"),
        ("r1", "r5", "r7", "r11", "r13"),
    ),
}

BIPYRAMIDS = (
    ("r1", "r5", "r7", "r11", "r13"),
    ("r4", "r8", "r10", "r15", "r16"),
)

# The two rays of each bipyramid whose removal leaves the common triangle of
# the two clusters covering it.
BIPYRAMID_APEXES = (
    ("r7", "r13"),
    ("r10", "r16"),
)

# Compatible root pairs whose edges are drawn in the second solid-torus
# chart of the fan rather than the first.
SECOND_CHART_EDGES = (
    ("r1", "r15"),
    ("r5", "r8"),
    ("r11", "r4"),
    ("r2", "r12"),
    ("r6", "r3"),
    ("r14", "r9"),
)

FAN_F_VECTOR = (16, 66, 98, 48)
CLUSTER_COMPLEX_F_VECTOR = (16, 66, 100, 50)

# Incidence between the 7 combinatorial classes of pseudotriangulations and
# the 6 realized plane types (counts of pseudotriangulations).
TABLE2 = {
    "T1": {"EEFG": 8, "EFFG": 8},
    "T2": {"EEFG": 4, "EFFG": 4},
    "T3": {"EEEG": 4, "FFFGG": 4},
    "T4": {"EEFFa": 2, "EEFFb": 2},
    "T5": {"EEFFa": 4},
    "T6": {"EEFFa": 4, "EEFFb": 4},
    "T7": {"EEFFa": 2},
}

CONES_PER_TYPE = {"EEEG": 4, "EEFFa": 12, "EEFFb": 6,
                  "EEFG": 12, "EFFG": 12, "FFFGG": 2}


def ray_set(labels):
    """Ray coordinate frozenset for a tuple of labels like ("r3", "r9")."""
    return frozenset(RAY_COORDS[l] for l in labels)
