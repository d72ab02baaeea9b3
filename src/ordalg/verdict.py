"""Uniform holds-or-witness result value.

Holding verdicts are one shared object, ``HOLDS``, which ``Verdict.of``
returns for no witness; only a holding verdict with a detail, such as a
skipped law, is a new object.  A failing verdict is a new object with its
witness.  Compare verdicts with ``bool(v)`` or ``==``, not ``is``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """Truthy iff the checked property holds; otherwise carries a witness."""

    holds: bool
    witness: tuple = ()
    detail: str = ""

    def __bool__(self):
        return self.holds

    @classmethod
    def of(cls, witness, detail=""):
        """HOLDS for no witness (None), else failing with it and the detail."""
        return HOLDS if witness is None else cls(False, witness, detail)


HOLDS = Verdict(True)
