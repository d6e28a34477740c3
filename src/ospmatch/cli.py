"""Command-line entry point.

Exit codes: 0 = success / property verified; 1 = negative verdict (not
limited cyclic, OSP violation, implementation mismatch, witness search
exhausted); 2 = usage or input format error; 3 = witness requested for a
limited-cyclic input (no witness can exist); 4 = internal error (a bug,
reported on one stderr line, never a verdict); 141 = stdout closed by its
reader (128 + SIGPIPE, as a shell reports a process killed by the signal;
nothing is printed).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Sequence

from . import jsonio
from .classify import Classification, classify as classify_priorities
from .core import PrioritySet, all_rankings
from .da import proposal_rounds, render_transcript, run_da
from .jsonio import FormatError, Names
from .mechanism import MechanismTree, check_implements, check_osp, validate
from .sweep import class_census
from .synth import NotLimitedCyclicError, synthesize
from .witness import check_witness, find_witness, lift_witness

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NO_WITNESS_EXISTS = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

# the largest market classify and witness take: on a market that is not
# limited cyclic the scan tries up to C(n,3)^2 + C(n,4)^2 restrictions,
# about 4 s at n = 16 and 11 s at n = 18 with pattern (e) planted on the
# last four applicants and positions (2-vCPU host)
MAX_CLASSIFY_N = 16


def _load(path: str) -> Any:
    """The JSON document in ``path``; a file that is not UTF-8 JSON, or that
    nests deeper than the decoder's recursion limit, is a ``FormatError``
    whose message starts with the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: {exc}") from exc
        except RecursionError as exc:
            raise FormatError(f"{path}: JSON nested too deeply") from exc


def _dump_json(doc: Any) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _names_set(names: Sequence[str], items: Sequence[int]) -> str:
    return "{" + ",".join(names[i] for i in items) + "}"


def _not_limited_line(result: Classification, names: Names) -> str:
    if result.witness is None:
        return "not limited cyclic"
    restriction, letter = result.witness
    return "not limited cyclic; forbidden pattern ({}) on applicants {} positions {}".format(
        letter,
        _names_set(names.applicants, restriction.applicants),
        _names_set(names.positions, restriction.positions),
    )


def _cmd_da(args: argparse.Namespace) -> int:
    q, names = jsonio.parse_priorities(_load(args.priorities))
    p, _ = jsonio.parse_profile(_load(args.profile), names)
    if args.transcript:
        cells, matching = proposal_rounds(q, p)
        if args.json:
            doc = jsonio.matching_to_doc(matching, names)
            doc["transcript"] = [
                [[names.applicants[a] for a in cell] for cell in row]
                for row in cells
            ]
            _dump_json(doc)
        else:
            print(render_transcript(cells, names.applicants, names.positions))
            _dump_json(jsonio.matching_to_doc(matching, names))
    else:
        _dump_json(jsonio.matching_to_doc(run_da(q, p), names))
    return EXIT_OK


def _classification_doc(result: Classification, names: Names) -> dict[str, Any]:
    doc: dict[str, Any] = {"verdict": result.verdict}
    if result.limited_cyclic:
        doc["blocks"] = [[names.applicants[a] for a in block] for block in result.blocks]
        doc["labelings"] = [
            {
                "block": index,
                "applicant_order": [names.applicants[a] for a in lab.applicant_order],
                "x_positions": [names.positions[x] for x in lab.x_positions],
                "u_position": names.positions[lab.u_position],
                "v_position": names.positions[lab.v_position],
            }
            for index, lab in result.block_labelings
        ]
    elif result.witness is not None:
        restriction, letter = result.witness
        doc["witness"] = {
            "pattern": letter,
            "applicants": [names.applicants[a] for a in restriction.applicants],
            "positions": [names.positions[x] for x in restriction.positions],
        }
    return doc


def _classify(q: PrioritySet, command: str) -> Classification:
    if q.n > MAX_CLASSIFY_N:
        raise FormatError(f"{command}: n = {q.n} is above the supported {MAX_CLASSIFY_N}")
    return classify_priorities(q)


def _cmd_classify(args: argparse.Namespace) -> int:
    q, names = jsonio.parse_priorities(_load(args.priorities))
    result = _classify(q, "classify")
    doc = _classification_doc(result, names)
    if args.json:
        _dump_json(doc)
        return EXIT_OK if result.limited_cyclic else EXIT_NEGATIVE
    if result.limited_cyclic:
        print("limited cyclic")
        print("blocks: " + " > ".join("{" + ",".join(b) + "}" for b in doc["blocks"]))
        for lab in doc["labelings"]:
            print(
                "block {}: order {}, x positions {{{}}}, u {}, v {}".format(
                    "{" + ",".join(doc["blocks"][lab["block"]]) + "}",
                    ",".join(lab["applicant_order"]),
                    ",".join(lab["x_positions"]),
                    lab["u_position"],
                    lab["v_position"],
                )
            )
        return EXIT_OK
    print(_not_limited_line(result, names))
    return EXIT_NEGATIVE


def _cmd_enumerate(args: argparse.Namespace) -> int:
    rows = class_census(args.n)
    names = jsonio.default_names(args.n)

    def form(canonical: tuple[tuple[int, ...], ...]) -> str:
        return "|".join("".join(names.applicants[a] for a in lst) for lst in canonical)

    if args.report:
        with open(args.report, "w", encoding="utf-8") as out:
            out.write("canonical_form\tcount\tverdict\twitness\n")
            for row in rows:
                out.write(
                    "{}\t{}\t{}\t{}\n".format(
                        form(row.canonical),
                        row.count,
                        "limited-cyclic" if row.limited_cyclic else "not-limited-cyclic",
                        row.witness_letter or "-",
                    )
                )
    total = sum(row.count for row in rows)
    summary = {
        "n": args.n,
        "classes": len(rows),
        "sets": total,
        "limited_cyclic_classes": sum(1 for r in rows if r.limited_cyclic),
        "limited_cyclic_sets": sum(r.count for r in rows if r.limited_cyclic),
    }
    if args.json:
        _dump_json(summary)
    else:
        print(
            "n={n}: {sets} sets in {classes} classes; "
            "{limited_cyclic_sets} sets ({limited_cyclic_classes} classes) limited cyclic".format(**summary)
        )
    return EXIT_OK


def _cmd_synthesize(args: argparse.Namespace) -> int:
    q, names = jsonio.parse_priorities(_load(args.priorities))
    if q.n > jsonio.MAX_TREE_N:
        raise FormatError(
            f"synthesize: n = {q.n} is above the supported {jsonio.MAX_TREE_N}"
        )
    try:
        tree = synthesize(q)
    except NotLimitedCyclicError as exc:
        if args.json:
            _dump_json(_classification_doc(exc.classification, names))
        else:
            print(_not_limited_line(exc.classification, names), file=sys.stderr)
        return EXIT_NEGATIVE
    doc = jsonio.tree_to_doc(tree, names)
    with open(args.output, "w", encoding="utf-8") as out:
        json.dump(doc, out)
        out.write("\n")
    message = {
        "written": args.output,
        "nodes": tree.node_count(),
        "leaves": tree.leaf_count(),
    }
    if args.json:
        _dump_json(message)
    else:
        print("wrote {written} ({nodes} nodes, {leaves} leaves)".format(**message))
    return EXIT_OK


def _describe_violations(tree: MechanismTree, names: Names, report) -> list[str]:
    rankings = all_rankings(tree.n)
    nodes = tree.nodes
    lines = []
    for v in report.violations:
        truth_leaf = nodes[v.truthful_leaf]
        dev_leaf = nodes[v.deviating_leaf]
        order = ",".join(names.positions[x] for x in rankings[v.type_id])
        lines.append(
            "node {}: player {} with type {} risks {} by continuing "
            "(leaf {}) but could reach {} by deviating (leaf {})".format(
                v.node,
                names.applicants[v.player],
                order,
                names.positions[truth_leaf.matching[v.player]],
                v.truthful_leaf,
                names.positions[dev_leaf.matching[v.player]],
                v.deviating_leaf,
            )
        )
    return lines


def _cmd_verify_tree(args: argparse.Namespace) -> int:
    if args.seed is not None and args.samples is None:
        raise FormatError("--seed applies only to --samples")
    if args.samples is not None and args.samples < 1:
        raise FormatError(f"--samples must be at least 1, got {args.samples}")
    tree, names = jsonio.parse_tree(_load(args.tree))
    q, _ = jsonio.parse_priorities(_load(args.priorities))
    if q.n != tree.n:
        raise FormatError("tree and priorities disagree on market size")
    checks: dict[str, Any] = {}
    valid = validate(tree)
    checks["validate"] = {"ok": valid.ok, "problems": list(valid.problems)}
    ok = valid.ok
    if valid.ok:
        samples = args.samples
        if samples is None and not args.exhaustive:
            profile_count = math.prod(u.bit_count() for u in tree.universes)
            if profile_count > 2_000_000:
                raise FormatError(
                    f"environment has {profile_count} profiles; pass "
                    "--samples N (or force --exhaustive)"
                )
        implements = check_implements(tree, q, samples=samples, seed=args.seed or 0)
        checks["implements"] = {
            "ok": implements.ok,
            "checked": implements.checked,
        }
        if implements.counterexample is not None:
            rankings = all_rankings(tree.n)
            checks["implements"]["counterexample"] = [
                [names.positions[x] for x in rankings[t]]
                for t in implements.counterexample
            ]
        osp = check_osp(tree)
        checks["osp"] = {"ok": osp.ok, "violations": len(osp.violations)}
        ok = implements.ok and osp.ok
        if not osp.ok and not args.json:
            checks["osp"]["detail"] = _describe_violations(tree, names, osp)
    if args.json:
        _dump_json({"ok": ok, "checks": checks})
    else:
        for name, result in checks.items():
            print(f"{name}: {'ok' if result['ok'] else 'FAIL'}")
            for line in result.get("problems", []) or result.get("detail", []):
                print("  " + line)
            if name == "implements" and not result["ok"]:
                print("  counterexample profile: " + json.dumps(result.get("counterexample")))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_check_osp(args: argparse.Namespace) -> int:
    tree, names = jsonio.parse_tree(_load(args.tree))
    valid = validate(tree)
    if not valid.ok:
        raise FormatError("tree fails validation: " + "; ".join(valid.problems))
    report = check_osp(tree)
    if args.json:
        _dump_json({
            "ok": report.ok,
            "violations": [
                {
                    "node": v.node,
                    "player": names.applicants[v.player],
                    "type": [names.positions[x] for x in all_rankings(tree.n)[v.type_id]],
                    "truthful_leaf": v.truthful_leaf,
                    "deviating_leaf": v.deviating_leaf,
                }
                for v in report.violations
            ],
        })
    elif report.ok:
        print("ok: obviously strategyproof at every node")
    else:
        for line in _describe_violations(tree, names, report):
            print(line)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_witness(args: argparse.Namespace) -> int:
    if not args.search and (args.budget is not None or args.seed is not None):
        raise FormatError("--budget and --seed apply only to --search")
    budget = 100_000 if args.budget is None else args.budget
    if budget < 1:
        raise FormatError(f"--budget must be at least 1, got {budget}")
    q, names = jsonio.parse_priorities(_load(args.priorities))
    if args.search and q.n > jsonio.MAX_TREE_N:
        # each sample checks up to 3^n profiles
        raise FormatError(
            f"witness --search: n = {q.n} is above the supported {jsonio.MAX_TREE_N}"
        )
    classification = _classify(q, "witness")
    if classification.limited_cyclic:
        if args.json:
            _dump_json({"verdict": "limited-cyclic", "witness": None})
        else:
            print("limited cyclic: no witness subdomain exists")
        return EXIT_NO_WITNESS_EXISTS
    if args.search:
        subdomain = find_witness(q, budget=budget, seed=args.seed or 0)
        if subdomain is None:
            if args.json:
                _dump_json({"found": False, "reason": "budget exhausted"})
            else:
                print(f"no witness found within {budget} samples")
            return EXIT_NEGATIVE
    else:
        subdomain = lift_witness(q, classification.witness[0])
    report = check_witness(q, subdomain)
    if not report.ok:
        raise RuntimeError("the witness subdomain fails check_witness")
    doc = jsonio.subdomain_to_doc(subdomain, names)
    doc["evidence"] = [jsonio.improvement_to_doc(i, names) for i in report.improvements]
    if args.json:
        _dump_json({"found": True, "witness": doc})
    else:
        _dump_json(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospmatch",
        description="Classify, synthesize, and certify OSP implementations "
        "of deferred acceptance with fixed priorities.",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("da", help="run deferred acceptance on a profile")
    p.add_argument("priorities")
    p.add_argument("profile")
    p.add_argument("--transcript", action="store_true",
                   help="print the round-by-round proposal table")
    p.set_defaults(func=_cmd_da)

    p = sub.add_parser("classify", help="classify a priority set")
    p.add_argument("priorities")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="sweep all priority sets at size n")
    p.add_argument("--n", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--report", help="write one TSV row per relabeling class")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("synthesize", help="build an OSP tree for limited-cyclic priorities")
    p.add_argument("priorities")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify-tree", help="validate + implements + OSP checks")
    p.add_argument("tree")
    p.add_argument("priorities")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="check every profile of the environment (default)")
    mode.add_argument("--samples", type=int, default=None,
                      help="check this many seeded random profiles instead")
    p.add_argument("--seed", type=int, help="seed for --samples (default 0)")
    p.set_defaults(func=_cmd_verify_tree)

    p = sub.add_parser("check-osp", help="report OSP violations of a tree")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_check_osp)

    p = sub.add_parser("witness", help="produce a non-OSP witness subdomain")
    p.add_argument("priorities")
    p.add_argument("--search", action="store_true", help="random search instead of the lift")
    p.add_argument("--budget", type=int, help="samples for --search (default 100,000)")
    p.add_argument("--seed", type=int, help="seed for --search (default 0)")
    p.set_defaults(func=_cmd_witness)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader went away, which is no input fault; keep the flush
        # at interpreter exit from hitting the closed pipe again
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return EXIT_BROKEN_PIPE
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
