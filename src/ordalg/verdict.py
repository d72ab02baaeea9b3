"""Uniform holds-or-witness result value."""

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
        """Holding for no witness (None), else failing with it and the detail."""
        return cls(True) if witness is None else cls(False, witness, detail)
