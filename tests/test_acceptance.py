"""Acceptance suite.

Every test prints one `[ACCEPTANCE] <criterion>: PASS/FAIL` line so the
overall gate is readable from the log (run with `pytest -v` or `-s`).
Criterion 3/4 share a corpus: the deterministic catalog families at n <= 3
plus 200 seeded random adversaries with n = 3 and at most 3 graphs.
"""
from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import pytest

from oblicon.cli import main, save_adversary
from oblicon.decision import Verdict, decide
from oblicon.families import (
    check_inflation_preserved,
    gen_chain,
    gen_inflated,
    gen_partitioned,
    inflated_spec,
    lossy_link,
    random_rooted,
    rooted_trees,
    simple_chain_spec,
    source_broadcast,
)
from oblicon.graphs import CommunicationGraph
from oblicon.indist import Adversary
from oblicon.patterns import (
    Pattern,
    indist_label,
    pattern_at,
    pattern_components,
    pattern_index,
    pattern_indist_graph,
)
from oblicon.procset import is_subset, procs_of
from oblicon.simulate import build_rule, imposs_witness, oracle_min_horizon, verify_all_runs

BUDGET = 200_000
FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def feasible_rmax(m: int, wanted: int, budget: int = BUDGET) -> int:
    """Largest r <= wanted with m**r <= budget (wanted itself for |D| = 1)."""
    if m <= 1:
        return wanted
    r = 0
    while r < wanted and m ** (r + 1) <= budget:
        r += 1
    return max(r, 1)


@pytest.fixture(scope="module")
def corpus() -> list[tuple[str, Adversary]]:
    entries: list[tuple[str, Adversary]] = [
        ("lossy-link(2,1)", lossy_link(2, 1)),
        ("lossy-link(3,1)", lossy_link(3, 1)),
        ("rooted-trees(2)", rooted_trees(2)),
        ("rooted-trees(3)", rooted_trees(3)),
        ("source-broadcast(2,1)", source_broadcast(2, 1)),
        ("source-broadcast(3,1)", source_broadcast(3, 1)),
        ("source-broadcast(3,2)", source_broadcast(3, 2)),
    ]
    for seed in range(200):
        entries.append(
            (f"random(seed={seed})", random_rooted(3, (seed % 3) + 1, seed=seed))
        )
    return entries


# --- criterion 1: canonical verdicts ------------------------------------------


def test_criterion_1a_lossy_link_impossible():
    t0 = time.perf_counter()
    trace = decide(lossy_link(2, 1))
    elapsed = time.perf_counter() - t0
    report(
        "1a lossy-link n=2 f=1 impossible",
        trace.verdict is Verdict.IMPOSSIBLE and elapsed < 1.0,
        f"verdict={trace.verdict.value}, {elapsed:.3f}s",
    )


def test_criterion_1b_rooted_trees_impossible():
    t0 = time.perf_counter()
    d = rooted_trees(3)
    trace = decide(d)
    elapsed = time.perf_counter() - t0
    report(
        "1b rooted trees n=3 impossible",
        len(d) == 9 and trace.verdict is Verdict.IMPOSSIBLE and elapsed < 1.0,
        f"|D|={len(d)}, verdict={trace.verdict.value}, {elapsed:.3f}s",
    )


def test_criterion_1c_source_broadcast_solvable():
    ok = True
    details = []
    for n in (3, 4):
        t0 = time.perf_counter()
        trace = decide(source_broadcast(n, 1))
        elapsed = time.perf_counter() - t0
        ok = ok and trace.verdict is Verdict.SOLVABLE
        ok = ok and trace.removal_iterations == 0 and elapsed < 1.0
        details.append(f"n={n}: {trace.verdict.value}, removals={trace.removal_iterations}")
    report("1c source-broadcast solvable without removals", ok, "; ".join(details))


def test_criterion_1d_non_rooted_input():
    t0 = time.perf_counter()
    d = Adversary(
        [
            CommunicationGraph(3, [(1, 2), (1, 3)], "ok"),
            CommunicationGraph(3, [(1, 2)], "twosrc"),  # sources {1} and {3}
        ]
    )
    trace = decide(d)
    elapsed = time.perf_counter() - t0
    report(
        "1d non-rooted graph rejected",
        trace.verdict is Verdict.NOT_ROOTED and elapsed < 1.0,
        f"verdict={trace.verdict.value}",
    )


# --- criterion 2: chain iteration scaling --------------------------------------


def test_criterion_2_chain_iteration_scaling():
    ok = True
    details = []
    for num in range(3, 9):
        t0 = time.perf_counter()
        d = gen_chain(simple_chain_spec(num))
        trace = decide(d)
        elapsed = time.perf_counter() - t0
        removing = [r for r in trace.removed if r]
        right_to_left = removing == [
            ((num - k - 2, num - k - 1),) for k in range(num - 1)
        ]
        singletons = all(len(c) == 1 for c in trace.components_final)
        case_ok = (
            trace.verdict is Verdict.SOLVABLE
            and trace.removal_iterations == num - 1
            and right_to_left
            and singletons
            and elapsed < 1.0
        )
        ok = ok and case_ok
        details.append(f"N={num}:{'ok' if case_ok else 'FAIL'} {elapsed:.3f}s")
    report("2 chain removals one-per-iteration right-to-left", ok, " ".join(details))


# --- criterion 3: oracle equivalence corpus ------------------------------------


def test_criterion_3_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    failures = []
    for name, d in corpus:
        trace = decide(d)
        solvable = trace.verdict is Verdict.SOLVABLE
        rmax = feasible_rmax(len(d), max(trace.round_bound, 1))
        found = oracle_min_horizon(d, rmax, budget=BUDGET)
        if (found is not None) != solvable:
            failures.append(f"{name}: verdict={trace.verdict.value} oracle={found}")
            continue
        if solvable:
            if found > trace.round_bound:
                failures.append(f"{name}: min horizon {found} above bound {trace.round_bound}")
                continue
            rep = verify_all_runs(build_rule(d, found, budget=BUDGET))
            if not rep.ok:
                failures.append(f"{name}: verification violations at horizon {found}")
    elapsed = time.perf_counter() - t0
    report(
        "3 oracle equivalence over corpus",
        not failures and elapsed < 300.0,
        f"{len(corpus)} adversaries, {elapsed:.1f}s"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


# --- criterion 4: claim and lemma property suites -------------------------------


def _max_r(d: Adversary, extension: bool = False) -> int:
    """Largest r <= 3 whose required enumeration stays within budget."""
    r = feasible_rmax(len(d), 3)
    if extension and len(d) > 1:
        while r > 1 and len(d) ** (r + 1) > BUDGET:
            r -= 1
    return r


def test_criterion_4a_extension_claim(corpus):
    violations = []
    for name, d in corpus:
        if not d.all_rooted:
            continue
        for r in range(1, _max_r(d, extension=True) + 1):
            pig = pattern_indist_graph(d, r, budget=BUDGET)
            for u, v, lab in pig.edges():
                s1, s2 = pattern_at(d, r, u), pattern_at(d, r, v)
                if r > 1:
                    p1, p2 = s1.prefix(r - 1), s2.prefix(r - 1)
                    if p1.rounds != p2.rounds:
                        plab = indist_label(p1, p2)
                        if not is_subset(lab, plab):
                            violations.append(f"{name}: prefix label shrank at r={r}")
                for gi, g in enumerate(d.graphs):
                    if is_subset(g.root_mask, lab):
                        ext = indist_label(s1.extend(gi), s2.extend(gi))
                        if not (is_subset(g.root_mask, ext) and is_subset(ext, lab)):
                            violations.append(f"{name}: extension label broke nesting at r={r}")
    report("4a extension keeps protected edges", not violations, f"violations={violations[:3]}")


def test_criterion_4b_round_removal(corpus):
    violations = []
    for name, d in corpus:
        for r in range(2, _max_r(d) + 1):
            pig = pattern_indist_graph(d, r, budget=BUDGET)
            for u, v, _ in pig.edges():
                s1, s2 = pattern_at(d, r, u), pattern_at(d, r, v)
                for rr in range(1, r + 1):
                    a, b = s1.remove_round(rr), s2.remove_round(rr)
                    if a.rounds != b.rounds and indist_label(a, b) == 0:
                        violations.append(f"{name}: removing round {rr} killed an edge at r={r}")
    report("4b round removal keeps edges", not violations, f"violations={violations[:3]}")


def test_criterion_4c_influence_bound(corpus):
    violations = []
    for name, d in corpus:
        if not d.all_rooted:
            continue
        roots = d.root_masks()
        for r in range(2, _max_r(d) + 1):
            pig = pattern_indist_graph(d, r, budget=BUDGET)
            for u, v, _ in pig.edges():
                s1, s2 = pattern_at(d, r, u), pattern_at(d, r, v)
                for rp in range(1, r):
                    p1, p2 = s1.prefix(rp), s2.prefix(rp)
                    if p1.rounds == p2.rounds:
                        continue
                    plab = indist_label(p1, p2)
                    if plab == 0:
                        violations.append(f"{name}: missing prefix edge at r'={rp}")
                        continue
                    allowed = plab.bit_count() - 1
                    for sigma in (s1, s2):
                        bad_rounds = sum(
                            1
                            for rj in range(rp + 1, r + 1)
                            if not is_subset(roots[sigma.rounds[rj - 1]], plab)
                        )
                        if bad_rounds > allowed:
                            violations.append(
                                f"{name}: {bad_rounds} non-fitting rounds exceed {allowed}"
                            )
    report("4c influence-spread bound", not violations, f"violations={violations[:3]}")


def test_criterion_4d_components_stay_connected(corpus):
    violations = []
    for name, d in corpus:
        if not d.all_rooted:
            continue
        trace = decide(d, no_early_exit=True)
        for i in range(1, _max_r(d) + 1):
            level = trace.level_at(i)
            pcs = pattern_components(d, i, budget=BUDGET)
            pc_of = {}
            for ci, comp in enumerate(pcs):
                for x in comp:
                    pc_of[x] = ci
            m = len(d)
            rep_index = lambda g: sum(g * m**k for k in range(i))
            for comp in level.components():
                classes = {pc_of[rep_index(g)] for g in comp}
                if len(classes) > 1:
                    violations.append(f"{name}: level-{i} component split at pattern level")
    report(
        "4d refined components stay connected among patterns",
        not violations,
        f"violations={violations[:3]}",
    )


def test_criterion_4e_impossibility_witnesses(corpus):
    """Every witness is also compared exactly with the one recorded by the
    breadth-first search over the full pattern graph's adjacency lists that
    preceded the search over view buckets."""
    recorded = json.loads((FIXTURES / "criterion_4e.witnesses.json").read_text(encoding="utf-8"))
    found = []
    violations = []
    checked = 0
    for name, d in corpus:
        if not d.all_rooted:
            continue
        if decide(d).verdict is not Verdict.IMPOSSIBLE:
            continue
        for i in range(1, _max_r(d) + 1):
            w = imposs_witness(d, i, budget=BUDGET)
            if w is None:
                violations.append(f"{name}: no witness at level {i}")
                continue
            checked += 1
            if w.root_a & w.root_b:
                violations.append(f"{name}: witness roots overlap at level {i}")
            if w.path[0].rounds != (d.index_of(w.graph_a),) * i or w.path[-1].rounds != (
                d.index_of(w.graph_b),
            ) * i:
                violations.append(f"{name}: witness path endpoints wrong at level {i}")
            if any(lab == 0 for lab in w.edge_labels):
                violations.append(f"{name}: unverified path edge at level {i}")
            found.append(
                {
                    "adversary": name,
                    "graphs": [w.graph_a, w.graph_b],
                    "labels": [sorted(procs_of(lab)) for lab in w.edge_labels],
                    "level": i,
                    "path": [sigma.name for sigma in w.path],
                    "roots": [sorted(w.root_a), sorted(w.root_b)],
                }
            )
    if found != recorded:
        violations.append(
            f"witnesses differ from the recording: {len(found)} found, {len(recorded)} recorded"
        )
    report(
        "4e impossibility witnesses with disjoint roots",
        not violations and checked > 0,
        f"witnesses={checked}, violations={violations[:3]}",
    )


def test_criterion_4f_iteration_upper_bound(corpus):
    violations = []
    for name, d in corpus:
        trace = decide(d)
        if trace.iterations > 2**d.n:
            violations.append(f"{name}: {trace.iterations} > 2^{d.n}")
    report("4f iteration count within 2^n", not violations, f"violations={violations[:3]}")


# --- criterion 5: construction validators ---------------------------------------


def test_criterion_5_construction_validators():
    t0 = time.perf_counter()
    problems: list[str] = []

    # chain at the smallest feasible size (embedded checks: roots, exact chain,
    # nonempty distinct encoder picks)
    try:
        gen_chain(simple_chain_spec(2))
        gen_chain(simple_chain_spec(4))
    except Exception as exc:  # noqa: BLE001 - report into the gate
        problems.append(f"chain: {exc}")

    # inflated chain (embedded checks: roots, delay property, relay-only new labels)
    try:
        spec = inflated_spec(2, 2)
        inflated = gen_inflated(spec)
        base_adv = gen_chain(spec.base)
        check_inflation_preserved(base_adv, spec, inflated, 1, budget=BUDGET)
        check_inflation_preserved(base_adv, spec, inflated, 2, budget=BUDGET)
    except Exception as exc:  # noqa: BLE001
        problems.append(f"inflated: {exc}")

    # partitioned family at the smallest feasible parameters, including t=2
    try:
        gen_partitioned(1, 1)
        fam = gen_partitioned(2, 3)
        comps = pattern_components(fam.adversary, 2, budget=BUDGET)
        comp_of = {}
        for ci, comp in enumerate(comps):
            for x in comp:
                comp_of[x] = ci
        sigma_classes = {
            comp_of[pattern_index(Pattern(fam.adversary, (a, b)))]
            for a in fam.blocks[0]
            for b in fam.blocks[1]
        }
        if len(sigma_classes) != 1:
            problems.append("partitioned: block product not connected at t=2")
    except Exception as exc:  # noqa: BLE001
        problems.append(f"partitioned: {exc}")

    elapsed = time.perf_counter() - t0
    report(
        "5 construction validators",
        not problems and elapsed < 30.0,
        f"{elapsed:.1f}s" + (f"; {problems[:3]}" if problems else ""),
    )


# --- criterion 6: CLI determinism ------------------------------------------------


def test_criterion_6_cli_determinism(tmp_path, capsys):
    ll = tmp_path / "ll.json"
    save_adversary(lossy_link(2, 1), str(ll))
    chain = tmp_path / "chain.json"
    save_adversary(gen_chain(simple_chain_spec(3)), str(chain))
    commands = [
        ["decide", str(ll), "--trace"],
        ["decide", str(chain), "--trace", "--format", "json"],
        ["decide", str(chain), "--no-early-exit", "--format", "json"],
        ["oracle", str(ll), "--rmax", "3", "--format", "json"],
        ["oracle", str(chain), "--rmax", "2"],
        ["verify", str(ll), "--format", "json"],
        ["export-dot", str(ll), "--rounds", "2"],
        ["export-dot", str(chain), "--level", "2"],
        ["generate", "random-rooted", "--n", "3", "--count", "3", "--seed", "11", "-o", "-"],
        ["generate", "partitioned", "--blocks", "1", "--root-size", "1", "-o", "-"],
    ]
    mismatches = []
    for argv in commands:
        codes = []
        outputs = []
        for _ in range(2):
            codes.append(main(argv))
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err))
        if outputs[0] != outputs[1] or codes[0] != codes[1]:
            mismatches.append(" ".join(argv))
    report("6 CLI byte determinism", not mismatches, f"mismatches={mismatches}")
