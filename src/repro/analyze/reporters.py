"""Report renderers: human text, strict JSON, SARIF 2.1.0.

All three renderers take a list of :class:`~repro.analyze.engine.AnalysisReport`
and return a string, so the CLI and CI tooling can swap formats freely.

The SARIF output targets the 2.1.0 schema with logical locations (designs
have no source files — locations are ``design::P0(PA) turn X+->Y-`` logical
paths), per-rule descriptors from the registry (title, paper citation, fix
hint), and ``partialFingerprints`` matching the baseline fingerprints so
SARIF consumers and the ``--baseline`` mechanism agree on identity.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import jsonio
from repro.analyze.diagnostics import RULES, Diagnostic, Severity
from repro.analyze.engine import AnalysisReport

__all__ = ["render_json", "render_sarif", "render_text"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-lint"
TOOL_URI = "https://github.com/ebda/repro"
FINGERPRINT_KEY = "ebdaFingerprint/v1"


def render_text(reports: Sequence[AnalysisReport], *, verbose: bool = False) -> str:
    """Human-oriented multi-line report, one block per design."""
    lines: list[str] = []
    total = {s.value: 0 for s in Severity}
    for report in reports:
        counts = report.counts
        for key, n in counts.items():
            total[key] += n
        status = "clean" if not report.diagnostics else (
            f"{counts['error']} error(s), {counts['warning']} warning(s),"
            f" {counts['note']} note(s)"
        )
        lines.append(f"{report.unit_name}: {status}")
        for diag in report.diagnostics:
            lines.append(f"  {diag.render()}")
        if verbose:
            lines.append(
                f"  [rules run: {', '.join(report.rules_run)};"
                f" {report.elapsed_s * 1e3:.2f} ms]"
            )
    designs = len(reports)
    lines.append(
        f"checked {designs} design(s): {total['error']} error(s),"
        f" {total['warning']} warning(s), {total['note']} note(s)"
    )
    return "\n".join(lines)


def render_json(reports: Sequence[AnalysisReport]) -> str:
    """Strict machine-readable JSON (stable key order, sorted)."""
    payload = {
        "tool": TOOL_NAME,
        "schema": 1,
        "designs": [r.to_dict() for r in reports],
        "totals": {
            s.value: sum(r.counts[s.value] for r in reports) for s in Severity
        },
    }
    return jsonio.pretty(payload, sort_keys=True)


def _sarif_level(severity: Severity) -> str:
    # Severity names map one-to-one onto SARIF result levels.
    return severity.value


def _sarif_rules() -> list[dict[str, object]]:
    descriptors: list[dict[str, object]] = []
    for rid, info in sorted(RULES.items()):
        descriptors.append(
            {
                "id": rid,
                "name": info.title,
                "shortDescription": {"text": info.title},
                "fullDescription": {
                    "text": info.description or info.title,
                },
                "help": {
                    "text": f"{info.description or info.title}"
                    f" (EbDa paper, {info.citation})",
                },
                "defaultConfiguration": {
                    "level": _sarif_level(info.severity),
                    "enabled": info.default_enabled,
                },
                "properties": {
                    "citation": info.citation,
                    "requiresTopology": info.requires_topology,
                },
            }
        )
    return descriptors


def _sarif_result(diag: Diagnostic, rule_index: dict[str, int]) -> dict[str, object]:
    message = diag.message
    if diag.hint:
        message = f"{message} (hint: {diag.hint})"
    result: dict[str, object] = {
        "ruleId": diag.rule,
        "ruleIndex": rule_index.get(diag.rule, -1),
        "level": _sarif_level(diag.severity),
        "message": {"text": message},
        "locations": [
            {
                "logicalLocations": [
                    {
                        "name": diag.location.describe(),
                        "fullyQualifiedName": diag.location.fully_qualified(
                            diag.design
                        ),
                        "kind": "member",
                    }
                ]
            }
        ],
        "partialFingerprints": {FINGERPRINT_KEY: diag.fingerprint()},
    }
    if diag.design:
        result["properties"] = {"design": diag.design}
    return result


def render_sarif(reports: Sequence[AnalysisReport]) -> str:
    """A single-run SARIF 2.1.0 log covering every design analyzed."""
    rules = _sarif_rules()
    rule_index: dict[str, int] = {}
    for i, descriptor in enumerate(rules):
        rid = descriptor["id"]
        if isinstance(rid, str):
            rule_index[rid] = i
    results: list[dict[str, object]] = []
    for report in reports:
        for diag in report.diagnostics:
            results.append(_sarif_result(diag, rule_index))
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
                "columnKind": "unicodeCodePoints",
                "properties": {
                    "designs": [r.unit_name for r in reports],
                },
            }
        ],
    }
    return jsonio.pretty(log)


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}
