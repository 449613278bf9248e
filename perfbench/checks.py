"""Output checks that decide whether a benchmark operation succeeded.

An operation's output is reduced to a digest plus the few facts the
structural checks read. The digest covers everything the operation
reports except wall-clock fields: a run report without ``timing``, or the
buffer study's summary rows. At the default seed it must equal the digest
stored in ``reference.json`` (byte identity with the parent program); at
any seed it must equal the digest of the run's first untraced operation.
"""

from __future__ import annotations

import hashlib
import json


def digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_output(report: dict) -> dict:
    """Digest and checked facts of one ``execute`` report (as ``to_dict`` gives it)."""
    body = {k: v for k, v in report.items() if k != "timing"}
    buffer = report["buffer"]
    return {
        "digest": digest(body),
        "accuracies": [
            report["accuracy"]["stage_one"],
            report["accuracy"]["adapted"],
            *(e[k] for e in report["intermediate"]
              for k in ("stage_one_accuracy", "adapted_accuracy")),
        ],
        "adapted_accuracy": report["accuracy"]["adapted"],
        "capacity": report["config"]["buffer"]["capacity"],
        "stored": buffer["total_stored"] if buffer is not None else 0,
    }


def study_output(summary: list[dict]) -> dict:
    """Digest and checked facts of one ``buffer_study`` summary."""
    return {"digest": digest(summary), "summary": summary}


def _pairs(summary):
    by = {(r["b1"], r["b2"], r["strategy"]): r for r in summary}
    for b1, b2 in sorted({(r["b1"], r["b2"]) for r in summary}):
        yield (b1, b2), by[(b1, b2, "exemplar")], by[(b1, b2, "reservoir")]


def quality(output: dict) -> float:
    """The ``adapted_accuracy`` metric of one operation.

    For a run, the adapted predictor's test accuracy. For the buffer
    study, which trains no predictor, the share of its exemplar-versus-
    reservoir comparisons (mean and variance of the moment distance, per
    scenario) in which exemplar selection is closer, as the paper expects.
    """
    if "summary" not in output:
        return output["adapted_accuracy"]
    wins = [
        ex[key] < rs[key]
        for _, ex, rs in _pairs(output["summary"])
        for key in ("mean_distance", "var_distance")
    ]
    return sum(wins) / len(wins)


def problems(output: dict, expected_digest: str | None) -> list[str]:
    """Everything wrong with one operation's output; empty when it passes."""
    found = []
    if expected_digest is not None and output["digest"] != expected_digest:
        found.append(f"digest {output['digest'][:16]} != expected {expected_digest[:16]}")
    if "summary" in output:
        for (b1, b2), ex, rs in _pairs(output["summary"]):
            if not ex["mean_distance"] < rs["mean_distance"]:
                found.append(f"exemplar not below reservoir at ({b1}, {b2})")
        return found
    if not all(0.0 <= a <= 1.0 for a in output["accuracies"]):
        found.append(f"accuracy outside [0, 1]: {output['accuracies']}")
    if output["stored"] != output["capacity"]:
        found.append(f"buffer holds {output['stored']} of {output['capacity']} slots")
    return found
