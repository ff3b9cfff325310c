"""CLI: ``python -m repro.analysis {verify,dataflow,lint,report}``.

``verify``
    CFG-verify a SELF image (default: the instrumented distribution
    kernel). ``--self-check`` additionally runs the seeded attack corpus
    and requires every attack to be rejected with its expected check ID —
    the CI gate. ``--json`` writes the VerifierReport artifact.

``dataflow``
    Run the abstract-interpretation plane (V8 sensitive-taint, V9
    stack-balance, V10 static-budget) over a SELF image and print the
    proven StaticBudget. ``--self-check`` runs the dataflow attack
    corpus: every attack must pass V0–V7 *and* be rejected with exactly
    its expected dataflow check. ``--json`` writes the DataflowReport.

Each runs one pass of :mod:`repro.analysis.pipeline`; an ``--image``
file that cannot be read or parsed prints ``error: ...`` and exits 2.

``lint``
    Run rules D1–D7 over paths (default: the installed ``repro``
    package). Exit 1 on any finding.

``report``
    One JSON document combining kernel verification (both pipeline
    passes), the attack-corpus self-checks, and the lint summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..hw.isa import scan_for_sensitive
from ..kernel.image import SelfImage, build_kernel_image
from ..kernel.instrument import instrument_image
from .attacks import attack_corpus, dataflow_attack_corpus
from .lint import RULES, lint_paths
from .pipeline import CFG_PASS, DATAFLOW_PASS, verify_kernel

#: pass → the seeded attack corpus its ``--self-check`` replays
_CORPUS = {CFG_PASS: attack_corpus, DATAFLOW_PASS: dataflow_attack_corpus}


def _load_image(path: str | None) -> SelfImage:
    if path is None:
        image, _ = instrument_image(build_kernel_image())
        return image
    return SelfImage.deserialize(Path(path).read_bytes())


def _attack_row(kernel_pass, attack) -> dict:
    report = kernel_pass.run(attack.image)
    row = {"name": attack.name, "expected_check": attack.expected_check,
           "failed_checks": report.failed_checks, "digest": report.digest()}
    if kernel_pass is CFG_PASS:
        scan_clean = not any(scan_for_sensitive(s.data)
                             for s in attack.image.executable_sections())
        row.update(
            rejected_as_expected=attack.expected_check in report.failed_checks,
            byte_scan_clean=scan_clean,
            byte_scan_as_expected=scan_clean == attack.passes_byte_scan)
    else:
        row.update(
            rejected_as_expected=report.failed_checks == [
                attack.expected_check],
            passes_v0_v7=CFG_PASS.run(attack.image).ok)
    return row


def _attack_ok(row: dict) -> bool:
    return row["rejected_as_expected"] and row.get(
        "byte_scan_as_expected", True) and row.get("passes_v0_v7", True)


def _payload(kernel_pass, report, self_check: bool) -> dict:
    payload = {"kernel": report.as_dict(), "kernel_digest": report.digest()}
    if self_check:
        payload["attacks"] = [_attack_row(kernel_pass, attack)
                              for attack in _CORPUS[kernel_pass]()]
    return payload


def _cmd_pass(args) -> int:
    """``verify`` (the CFG pass) or ``dataflow``: one pass, one image."""
    kernel_pass = args.kernel_pass
    try:
        image = _load_image(args.image)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = _payload(kernel_pass, kernel_pass.run(image), args.self_check)
    kernel = payload["kernel"]
    ok = kernel["ok"]
    if kernel_pass is CFG_PASS:
        verdict, shape = "CLEAN", f"{kernel['gate_sites']} gate thunks"
    else:
        verdict = "PROVEN"
        shape = f"{kernel['iterations']} fixpoint iterations"
    print(f"kernel {kernel['image']}: {verdict if ok else 'REJECTED'} "
          f"({kernel['instructions']} instrs, {shape}, "
          f"digest {payload['kernel_digest'][:16]})")
    for check in kernel["checks"]:
        mark = "ok" if check["passed"] else f"FAIL x{check['count']}"
        print(f"  {check['id']} {check['name']:<20} {mark}")
    budget = kernel.get("budget")
    if budget:
        print(f"  budget: emc<={budget['emc_per_activation']} "
              f"exits<={budget['exits_per_activation']} per activation, "
              f"emc<={budget['emc_per_kcycle']}/kcycle")
    for attack in payload.get("attacks", []):
        good = _attack_ok(attack)
        ok = ok and good
        v0_v7 = ""
        if "passes_v0_v7" in attack:
            v0_v7 = (" (V0-V7 "
                     f"{'clean' if attack['passes_v0_v7'] else 'DIRTY'})")
        print(f"  attack {attack['name']:<28} expected "
              f"{attack['expected_check']} got "
              f"{','.join(attack['failed_checks']) or '-'}{v0_v7} "
              f"[{'ok' if good else 'UNEXPECTED'}]")
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"report written to {args.json}")
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    paths = args.paths or [str(Path(__file__).resolve().parents[1])]
    findings = lint_paths(paths)
    for f in findings:
        print(f)
    print(f"{len(findings)} finding(s) "
          f"(rules: {', '.join(sorted(RULES))})")
    return 1 if findings else 0


def _cmd_report(args) -> int:
    payload, dataflow = (_payload(kernel_pass, report, True)
                         for kernel_pass, report
                         in verify_kernel(_load_image(None),
                                           dataflow=True))
    payload["dataflow"] = dataflow
    paths = args.paths or [str(Path(__file__).resolve().parents[1])]
    findings = lint_paths(paths)
    payload["lint"] = {
        "findings": [f.__dict__ for f in findings],
        "rules": RULES,
    }
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(blob)
        print(f"report written to {args.out}")
    else:
        print(blob, end="")
    ok = not findings and all(
        part["kernel"]["ok"] and all(map(_attack_ok, part["attacks"]))
        for part in (payload, payload["dataflow"]))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Erebor static analysis: CFG verifier + lints")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="CFG-verify a SELF image")
    p.add_argument("--image", help="path to a serialized SELF image "
                   "(default: the instrumented distribution kernel)")
    p.add_argument("--self-check", action="store_true", dest="self_check",
                   help="also run the seeded attack corpus")
    p.add_argument("--json", help="write the report JSON here")
    p.set_defaults(fn=_cmd_pass, kernel_pass=CFG_PASS)

    p = sub.add_parser("dataflow",
                       help="dataflow-verify a SELF image (V8-V10)")
    p.add_argument("--image", help="path to a serialized SELF image "
                   "(default: the instrumented distribution kernel)")
    p.add_argument("--self-check", action="store_true", dest="self_check",
                   help="also run the dataflow attack corpus")
    p.add_argument("--json", help="write the report JSON here")
    p.set_defaults(fn=_cmd_pass, kernel_pass=DATAFLOW_PASS)

    p = sub.add_parser("lint", help="run discipline rules D1-D7")
    p.add_argument("paths", nargs="*", help="files/dirs "
                   "(default: the repro package)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("report", help="combined verify+lint JSON")
    p.add_argument("paths", nargs="*")
    p.add_argument("--out", help="write the JSON here (default: stdout)")
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
