"""AST rule engine: contexts, findings, suppressions, and the baseline.

Design
------
A :class:`Rule` inspects one parsed module (:class:`ModuleContext`) and
yields :class:`Finding` records.  The engine owns everything that is not
rule logic:

* **parsing** — each file is parsed once; the context carries the tree, a
  child→parent map (``ctx.parent``), the raw source lines, and small
  shared analyses rules keep reusing (dotted call names, enclosing
  function lookup);
* **inline suppressions** — ``# repro: noqa`` on the flagged line mutes
  every rule, ``# repro: noqa[RS004]`` (comma-separated ids allowed)
  mutes just those rules.  Suppressed findings are still reported, marked
  ``suppressed="noqa"``, so tooling can count them;
* **the baseline** — ``statics_baseline.json`` grandfathers pre-existing
  findings by *fingerprint* (rule id + path + normalised source line +
  occurrence index), which survives unrelated line-number churn.  Every
  baseline entry must carry a human justification; entries that no longer
  match anything are reported as *stale* so the file cannot rot.

Exit-code policy lives with the CLI: a report is "clean" iff it has no
*active* (unsuppressed) findings and no stale baseline entries.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9, ]+)\])?", re.IGNORECASE)

BASELINE_SCHEMA = "repro-statics-baseline/1"
REPORT_SCHEMA = "repro-statics/1"


@dataclass(frozen=True)
class RuleMeta:
    """Identity and rationale of one rule (shown in reports and docs)."""

    id: str
    title: str
    rationale: str
    severity: str = "error"


@dataclass
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str
    suppressed: str | None = None      # None | "noqa" | "baseline"

    def fingerprint(self, occurrence: int = 0) -> str:
        """Location-independent identity used by the baseline.

        Hashes the rule id, the path, the whitespace-normalised source
        line, and the occurrence index among identical (rule, path,
        snippet) findings — stable under unrelated edits above the line.
        """
        norm = " ".join(self.snippet.split())
        basis = f"{self.rule}|{self.path}|{norm}|{occurrence}"
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message,
            "snippet": self.snippet, "suppressed": self.suppressed,
        }

    def render(self) -> str:
        tag = f" [{self.suppressed}]" if self.suppressed else ""
        return (f"{self.path}:{self.line}:{self.col}: {self.rule}{tag} "
                f"{self.message}\n    {self.snippet}")


class ModuleContext:
    """One parsed module plus the shared analyses rules lean on."""

    def __init__(self, source: str, path: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.parent: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parent[child] = node
        self.noqa = self._parse_noqa()

    # -- suppressions -------------------------------------------------
    def _parse_noqa(self) -> dict[int, set[str] | None]:
        """line → set of suppressed rule ids, or None for "all rules"."""
        out: dict[int, set[str] | None] = {}
        for lineno, text in enumerate(self.lines, start=1):
            m = NOQA_RE.search(text)
            if not m:
                continue
            rules = m.group("rules")
            if rules is None:
                out[lineno] = None    # bare noqa: mute every rule
            else:
                ids = {r.strip().upper() for r in rules.split(",")
                       if r.strip()}
                prev = out.get(lineno, set())
                # an earlier bare noqa on the line (None) stays "all"
                out[lineno] = None if prev is None else prev | ids
        return out

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if line not in self.noqa:
            return False
        rules = self.noqa[line]
        return rules is None or rule_id in rules

    # -- shared helpers ----------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parent.get(node)
        while cur is not None:
            yield cur
            cur = self.parent.get(cur)

    def enclosing_function(
            self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule_id, path=self.path, line=line, col=col,
                       message=message, snippet=self.line_text(line))


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee (``np.random.default_rng``)."""
    return dotted_name(node.func)


class Rule:
    """Base class: subclasses set ``meta`` and implement :meth:`check`."""

    meta: RuleMeta

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

@dataclass
class BaselineEntry:
    rule: str
    path: str
    fingerprint: str
    justification: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "path": self.path,
                "fingerprint": self.fingerprint,
                "justification": self.justification}


@dataclass
class Baseline:
    """Grandfathered findings, matched by fingerprint.

    The committed file is ``statics_baseline.json``; an empty findings
    list is the healthy steady state.  Entries *must* carry a non-empty
    justification — the loader rejects silent grandfathering.
    """

    entries: list[BaselineEntry] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if doc.get("schema") != BASELINE_SCHEMA:
            raise ValueError(
                f"unknown baseline schema {doc.get('schema')!r} "
                f"(expected {BASELINE_SCHEMA})")
        entries = []
        for rec in doc.get("findings", ()):
            just = str(rec.get("justification", "")).strip()
            if not just:
                raise ValueError(
                    f"baseline entry {rec.get('fingerprint')!r} has no "
                    "justification — every grandfathered finding must "
                    "say why it is acceptable")
            entries.append(BaselineEntry(
                rule=str(rec["rule"]), path=str(rec["path"]),
                fingerprint=str(rec["fingerprint"]), justification=just))
        return cls(entries)

    def save(self, path: str | Path) -> None:
        doc = {"schema": BASELINE_SCHEMA,
               "findings": [e.to_json() for e in self.entries]}
        Path(path).write_text(json.dumps(doc, indent=2) + "\n",
                              encoding="utf-8")

    def fingerprints(self) -> set[str]:
        return {e.fingerprint for e in self.entries}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class LintReport:
    """Everything one lint run produced, partitioned by suppression."""

    findings: list[Finding] = field(default_factory=list)
    suppressed_noqa: list[Finding] = field(default_factory=list)
    suppressed_baseline: list[Finding] = field(default_factory=list)
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)
    rule_meta: dict[str, RuleMeta] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.stale_baseline

    def _finding_json(self, f: Finding) -> dict:
        """One finding plus its rule's metadata — the JSON artifact must
        be self-describing (CI consumers see title/severity, not just an
        opaque rule id).  The text renderer stays id-only."""
        doc = f.to_json()
        meta = self.rule_meta.get(f.rule)
        if meta is not None:
            doc["title"] = meta.title
            doc["severity"] = meta.severity
        return doc

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "findings": [self._finding_json(f) for f in self.findings],
            "suppressed_noqa": [
                self._finding_json(f) for f in self.suppressed_noqa],
            "suppressed_baseline": [
                self._finding_json(f) for f in self.suppressed_baseline],
            "stale_baseline": [e.to_json() for e in self.stale_baseline],
        }

    def render(self) -> str:
        out: list[str] = []
        for f in self.findings:
            out.append(f.render())
        for e in self.stale_baseline:
            out.append(f"{e.path}: stale baseline entry {e.fingerprint} "
                       f"({e.rule}) — the finding it grandfathers is gone; "
                       "remove it from statics_baseline.json")
        out.append(
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed_noqa)} noqa-suppressed, "
            f"{len(self.suppressed_baseline)} baselined, "
            f"{len(self.stale_baseline)} stale baseline entr"
            f"{'y' if len(self.stale_baseline) == 1 else 'ies'} "
            f"across {self.files_checked} file(s)")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _apply_suppressions(raw: list[Finding], ctx_by_path: dict[str,
                        ModuleContext], baseline: Baseline | None,
                        report: LintReport) -> None:
    """Partition raw findings into active / noqa / baselined, and record
    stale baseline entries."""
    # occurrence index among identical (rule, path, snippet) triples keeps
    # fingerprints distinct when one line repeats verbatim in a file
    occurrence: dict[tuple[str, str, str], int] = {}
    base_fps = baseline.fingerprints() if baseline is not None else set()
    matched_fps: set[str] = set()
    for f in sorted(raw, key=lambda f: (f.path, f.line, f.col, f.rule)):
        ctx = ctx_by_path.get(f.path)
        if ctx is not None and ctx.is_suppressed(f.rule, f.line):
            f.suppressed = "noqa"
            report.suppressed_noqa.append(f)
            continue
        key = (f.rule, f.path, " ".join(f.snippet.split()))
        idx = occurrence.get(key, 0)
        occurrence[key] = idx + 1
        fp = f.fingerprint(idx)
        if fp in base_fps:
            matched_fps.add(fp)
            f.suppressed = "baseline"
            report.suppressed_baseline.append(f)
            continue
        report.findings.append(f)
    if baseline is not None:
        # only entries whose rule actually ran can be judged stale: a
        # subset run (``--rules RS004``) must not condemn the other
        # rules' grandfathered findings
        ran = set(report.rules_run)
        report.stale_baseline = [e for e in baseline.entries
                                 if e.fingerprint not in matched_fps
                                 and e.rule in ran]


def run_lint(contexts: Sequence[ModuleContext], rules: Sequence[Rule],
             baseline: Baseline | None = None) -> LintReport:
    """Run ``rules`` over already-parsed module contexts."""
    report = LintReport(files_checked=len(contexts),
                        rules_run=[r.meta.id for r in rules],
                        rule_meta={r.meta.id: r.meta for r in rules})
    raw: list[Finding] = []
    ctx_by_path: dict[str, ModuleContext] = {}
    for ctx in contexts:
        ctx_by_path[ctx.path] = ctx
        for rule in rules:
            raw.extend(rule.check(ctx))
    _apply_suppressions(raw, ctx_by_path, baseline, report)
    return report


def lint_source(source: str, path: str = "<string>",
                rules: Sequence[Rule] | None = None,
                baseline: Baseline | None = None) -> LintReport:
    """Lint one source string (the fixture-test entry point)."""
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    return run_lint([ModuleContext(source, path)], rules, baseline)


def iter_python_files(roots: Sequence[str | Path]) -> list[Path]:
    """Every ``*.py`` under the given files/directories, sorted."""
    out: set[Path] = set()
    for root in roots:
        p = Path(root)
        if p.is_dir():
            out.update(q for q in p.rglob("*.py") if q.is_file())
        elif p.is_file():
            out.add(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
    return sorted(out)


def lint_paths(roots: Sequence[str | Path],
               rules: Sequence[Rule] | None = None,
               baseline: Baseline | None = None,
               relative_to: str | Path | None = None) -> LintReport:
    """Lint every Python file under ``roots``.

    ``relative_to`` controls how paths are reported (and therefore how
    baseline fingerprints bind); it defaults to the common parent so the
    committed baseline is machine-independent.
    """
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    files = iter_python_files(roots)
    contexts = []
    for f in files:
        if relative_to is not None:
            try:
                rel = f.resolve().relative_to(Path(relative_to).resolve())
            except ValueError:
                rel = f
        else:
            rel = f
        contexts.append(
            ModuleContext(f.read_text(encoding="utf-8"), rel.as_posix()))
    return run_lint(contexts, rules, baseline)
