"""Source lint: no truthiness reads of the oracle mode string.

Since the checker-mode redesign ``config.oracle`` is a mode *string*
(``"off"``/``"shadow"``/``"online"``/``"cross-check"``), so a truthiness
read (``if config.oracle:``) is a latent bug — every non-empty mode
string, including ``"off"``, is truthy. Behavioral code must use the
``oracle_armed``/``shadow_oracle``/``online_monitor`` properties or
compare against a mode name.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Truthiness reads of the oracle mode string: ``config.oracle`` used
#: directly as a condition (always true — "off" is a non-empty string)
#: rather than compared to a mode name or routed through the
#: ``oracle_armed``/``shadow_oracle``/``online_monitor`` properties.
ORACLE_TRUTHINESS = re.compile(
    r"\b(?:if|elif|while|assert|not|and|or|return)\s+"
    r"(?:self\s*\.\s*)?config\s*\.\s*oracle\b"
    r"(?!\s*(?:==|!=|\bin\b|\bis\b|\bnot\b))"
)


def oracle_truthiness_reads():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if ORACLE_TRUTHINESS.search(code):
                hits.append("src/repro/{}:{}: {}".format(
                    relative, number, line.strip()
                ))
    return hits


def test_no_oracle_truthiness_reads():
    hits = oracle_truthiness_reads()
    assert not hits, (
        "truthiness reads of the oracle mode string found (use "
        "config.oracle_armed / shadow_oracle / online_monitor or "
        "compare to a mode name):\n" + "\n".join(hits)
    )


def test_oracle_lint_actually_detects(tmp_path, monkeypatch):
    """The lint must not be vacuous: plant a read, see it flagged."""
    planted = tmp_path / "repro"
    planted.mkdir()
    (planted / "victim.py").write_text(
        "# if config.oracle: in a comment is fine\n"
        "armed = config.oracle == 'online'  # comparisons are fine\n"
        "mode = self.config.oracle\n"  # plain read is fine
        "if config.oracle_armed:\n    pass\n"  # property is fine
        "if not config.oracle:\n"
        "    pass\n"
    )
    import sys

    lint = sys.modules[__name__]
    monkeypatch.setattr(lint, "SRC", planted)
    hits = oracle_truthiness_reads()
    assert len(hits) == 1
    assert "victim.py:6" in hits[0]
