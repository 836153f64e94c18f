"""Braid words, their closures, and the built-in knot table.

The text format is "Bn: l1 l2 ...", for example "B3: 1 -2 1 -2".  Strands
are 1-based; letter i crosses the strands at positions i and i+1, with the
strand at position i passing over for a positive letter (right-handed
crossing).  A braid is accepted as a knot input only when its closure has a
single component.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_HEADER_RE = re.compile(r"^\s*B\s*(\d+)\s*:\s*(.*?)\s*$")


@dataclass(frozen=True, slots=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        object.__setattr__(self, "letters", tuple(self.letters))
        for l in self.letters:
            if l == 0 or abs(l) >= self.strands:
                raise ValueError(
                    f"letter {l} is out of range for a {self.strands}-strand braid"
                )

    def writhe(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    def closure_components(self) -> int:
        """The cycles of the braid's strand permutation.

        perm[b] is the top position of the strand that ends at bottom
        position b.  That is the inverse of the map from tops to bottoms,
        and a permutation has the same cycles as its inverse.
        """
        perm = list(range(self.strands))
        for l in self.letters:
            i = abs(l) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        seen = [False] * self.strands
        cycles = 0
        for s in range(self.strands):
            if not seen[s]:
                cycles += 1
                t = s
                while not seen[t]:
                    seen[t] = True
                    t = perm[t]
        return cycles

    def is_knot(self) -> bool:
        return self.closure_components() == 1

    def __str__(self) -> str:
        return format_braid(self)


def parse_braid(text: str) -> BraidWord:
    """Parse "Bn: l1 l2 ..." and require the closure to be a knot."""
    m = _HEADER_RE.match(text)
    if not m:
        raise ValueError(f"malformed braid {text!r}; expected 'Bn: l1 l2 ...'")
    strands = int(m.group(1))
    body = m.group(2)
    letters = []
    for tok in body.split():
        try:
            val = int(tok)
        except ValueError:
            raise ValueError(f"malformed braid letter {tok!r}") from None
        letters.append(val)
    braid = BraidWord(strands, tuple(letters))
    comps = braid.closure_components()
    if comps != 1:
        raise ValueError(
            f"closure of {text.strip()!r} has {comps} components; need a knot"
        )
    return braid


def format_braid(b: BraidWord) -> str:
    body = " ".join(str(l) for l in b.letters)
    return f"B{b.strands}: {body}".rstrip()


KNOT_TABLE: dict[str, BraidWord] = {
    name: parse_braid(text)
    for name, text in (
        ("unknot", "B1:"),
        ("3_1", "B2: 1 1 1"),
        ("4_1", "B3: 1 -2 1 -2"),
        ("5_1", "B2: 1 1 1 1 1"),
        ("5_2", "B3: 1 1 1 2 -1 2"),
    )
}


def resolve_knot(text: str) -> BraidWord:
    """Accept either a built-in name or a literal braid word."""
    if text in KNOT_TABLE:
        return KNOT_TABLE[text]
    if _HEADER_RE.match(text):
        return parse_braid(text)
    raise ValueError(
        f"{text!r} is neither a built-in knot name nor a braid word 'Bn: ...'"
    )
