"""Structured pass/fail reporting shared by all verification suites."""

from dataclasses import dataclass


class ConsistencyError(RuntimeError):
    """A value failed an identity it rests on (see VerificationReport.require)."""


class RecipeError(ConsistencyError):
    """A recipe of a module environment that raised, named by the keys it builds."""


@dataclass
class ReportEntry:
    """Outcome of one checked identity, with an optional failure witness."""

    identity: str
    module: object = None  # None or a JSON-ready dict describing the module
    status: str = "pass"
    witness: str = None

    def json_obj(self):
        obj = {"identity": self.identity, "module": self.module, "status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj

    def text_line(self):
        line = "%s  %s" % (self.status.upper().ljust(4), self.identity)
        if self.module is not None:
            line += "  @ %s" % _module_str(self.module)
        if self.witness is not None:
            line += "  -- witness: %s" % self.witness
        return line


def check(identity, module, ok, witness=None):
    """Build a pass/fail entry, keeping the witness only on failure."""
    return ReportEntry(identity=identity, module=module,
                       status="pass" if ok else "fail",
                       witness=None if ok else witness)


def compare(identity, module, build, witness):
    """The row of identity, whose sides build() returns: it passes when each
    equals the first, else fails with witness(first, the first that differs),
    or with the message of a recipe that raises (RecipeError)."""
    try:
        first, *rest = build()
    except RecipeError as err:
        return check(identity, module, False, str(err))
    for value in rest:
        if first != value:
            return check(identity, module, False, witness(first, value))
    return check(identity, module, True)


def _module_str(module):
    if isinstance(module, dict):
        return ",".join("%s=%s" % (k, module[k]) for k in module)
    return str(module)


class VerificationReport:
    """An ordered collection of report entries."""

    def __init__(self, entries=None):
        self.entries = list(entries) if entries else []

    def add(self, entry):
        self.entries.append(entry)

    def extend(self, other):
        self.entries.extend(other.entries if isinstance(other, VerificationReport) else other)
        return self

    @property
    def passed(self):
        return all(e.status == "pass" for e in self.entries)

    @property
    def failures(self):
        return [e for e in self.entries if e.status != "pass"]

    def require(self):
        """Return self, or raise ConsistencyError with the text line of the
        first failed row, which names its identity and witness."""
        failures = self.failures
        if failures:
            raise ConsistencyError(failures[0].text_line())
        return self

    def json_obj(self):
        return {
            "status": "pass" if self.passed else "fail",
            "checks": len(self.entries),
            "failed": len(self.failures),
            "entries": [e.json_obj() for e in self.entries],
        }

    def to_text(self):
        lines = [e.text_line() for e in self.entries]
        if self.passed:
            lines.append("pass: %d checks" % len(self.entries))
        else:
            lines.append("FAIL: %d of %d checks failed" % (len(self.failures), len(self.entries)))
        return "\n".join(lines)
