"""Pins of the catalog's declarative data and constraint verdicts.

``identity_catalog_guard.json`` records, for every entry in CATALOG_ORDER,
its id, n_values, tolerance, description and note, and the constraint
verdict (message or None) of its first 40 seeded draws.  The entry's own
sampler stays inside its admissible region, so few of those draws are
rejected; 40 more draws take the parameters from a wide box that crosses the
integer lattice, where the family guards and the entry's own conditions both
fire, so the order in which they are checked is pinned too.  The verdicts are
stored as indices into the entry's list of distinct messages.

A third list, ``lattice_verdicts``, pins 500 draws whose parameters lie
within 0.15 of the half-integer lattice in [-6, 6] with imaginary parts below
0.06, and whose z comes from a wide box on every odd draw.  These reach every
message an entry can return; a row that no parameters reach (one shadowed by
an earlier row, or a Pochhammer of order 0) is listed in CHANGES.md.  It is
stored as one character per draw: "." for None, else the message index.

A rewrite of how entries are registered or how their hypotheses are checked
must leave every one of these unchanged.

Regenerate (only when an entry is meant to change) with
``PYTHONPATH=src python tests/test_identity_catalog.py``.
"""

from __future__ import annotations

import json
import pathlib
from random import Random

from jacobifn.identity_catalog import CATALOG, CATALOG_ORDER
from jacobifn.jacobi_first import JacobiParams

GUARD_FILE = pathlib.Path(__file__).with_name("identity_catalog_guard.json")
DRAWS = 40
SEED = 4040
LATTICE_DRAWS = 500
LATTICE_SEED = 5050


def _wide(rng: Random) -> JacobiParams:
    return JacobiParams(
        *(complex(rng.uniform(-4.5, 4.5), rng.uniform(-0.12, 0.12)) for _ in range(3))
    )


def _lattice(rng: Random) -> JacobiParams:
    return JacobiParams(
        *(
            complex(rng.randint(-12, 12) / 2 + rng.uniform(-0.15, 0.15), rng.uniform(-0.06, 0.06))
            for _ in range(3)
        )
    )


def guard_table() -> dict:
    """The pinned data of every entry, in catalog order."""
    table = {}
    for ident in CATALOG_ORDER:
        entry = CATALOG[ident]
        messages: list[str] = []

        def verdicts(seed: int, draws: int, params_draw) -> list[int | None]:
            rng = Random(seed)
            out: list[int | None] = []
            for i in range(draws):
                n = entry.n_values[i % len(entry.n_values)]
                params, z = entry.sample(rng, n)
                if params_draw is not None:
                    params = params_draw(rng)
                if params_draw is _lattice and i % 2:
                    z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
                bad = entry.constraints(params, z, n)
                if bad is not None and bad not in messages:
                    messages.append(bad)
                out.append(None if bad is None else messages.index(bad))
            return out

        own = verdicts(SEED, DRAWS, None)
        wide = verdicts(SEED + 1, DRAWS, _wide)
        lattice = verdicts(LATTICE_SEED, LATTICE_DRAWS, _lattice)
        assert len(messages) <= 10
        table[ident] = {
            "n_values": list(entry.n_values),
            "tolerance": entry.tolerance,
            "description": entry.description,
            "note": entry.note,
            "messages": messages,
            "verdicts": own,
            "wide_verdicts": wide,
            "lattice_verdicts": "".join("." if v is None else str(v) for v in lattice),
        }
    return table


def test_catalog_entries_and_verdicts_pinned():
    pinned = json.loads(GUARD_FILE.read_text(encoding="utf-8"))
    got = guard_table()
    assert list(got) == list(pinned)
    for ident, want in pinned.items():
        assert got[ident] == want, ident


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in guard_table().items()]
    GUARD_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
