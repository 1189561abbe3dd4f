"""Finding and suppression models shared by the checkers and reporters."""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field, replace


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location.

    Orders by (path, line, col, rule) so reports are stable regardless of
    checker execution order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False
    justification: str | None = None

    def suppress(self, justification: str | None) -> "Finding":
        return replace(self, suppressed=True, justification=justification)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


# A suppression directive must open the comment, e.g. one rule, several, or
# a wildcard, each optionally justified after a double dash:
# ignore one rule / ignore a list / ignore[*] all, justification after `--`.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore\[(?P<rules>[A-Z0-9*,\s]+)\]\s*(?:--\s*(?P<why>.*\S))?"
)


@dataclass
class Suppression:
    """One parsed ``# repro: ignore[...]`` comment."""

    path: str
    line: int  # line the comment sits on
    rules: frozenset[str]  # rule ids, or {"*"}
    justification: str | None
    standalone: bool  # comment is alone on its line (applies to line+1)
    used: bool = field(default=False, compare=False)

    def covers(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules

    @property
    def target_line(self) -> int:
        """The source line this suppression applies to."""
        return self.line + 1 if self.standalone else self.line


def parse_suppressions(source: str, path: str) -> list[Suppression]:
    """Scan ``source`` for suppression comments.

    Only real COMMENT tokens count — the directive pattern appearing inside a
    string or docstring (this package documents itself, after all) is not a
    suppression.  The directive must open the comment; trailing prose after
    the ``-- justification`` belongs to the justification.
    """
    out: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The runner reports the parse failure as ANA000; no comments then.
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.match(tok.string)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        if not rules:
            continue
        out.append(
            Suppression(
                path=path,
                line=tok.start[0],
                rules=rules,
                justification=match.group("why"),
                standalone=not tok.line[: tok.start[1]].strip(),
            )
        )
    return out
