#!/usr/bin/env python3
"""Self-test of the benchmark's output checks; needs no build.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It feeds `run.py`'s checkers reports assembled from the goldens, first
unchanged (every check must pass) and then with golden rows altered
(the failed fraction must be above 0, and never above 1), for a
full-suite workload, a `--fast` workload and `check-warm`. It also checks
that a perfbench/golden snapshot retires once its results file changes.
Exits 1 if any expectation fails.
"""

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench_output(spec, alter=None):
    """A `lvp bench` stdout made of the goldens; `alter` maps an
    experiment to a function applied to its report text."""
    parts = []
    fast = "--fast" in spec["cmd"]
    for exp in spec["experiments"]:
        text, exact = run.golden(exp, fast)
        if not exact:
            keep = set(run.SUITE) - set(run.FAST)
            text = "\n".join(line for line in text.split("\n") if not (line.split() and line.split()[0] in keep))
        if alter and exp in alter:
            text = alter[exp](text)
        parts.append(f"{text}[{exp}: 1.00s]\n\n")
    parts.append("engine: traces 1 computed / 0 cached / 0 disk, annotations 0 computed / 0 cached, "
                 "timings 0 computed / 0 cached\n")
    return "".join(parts)


def alter_row(*names):
    """Changes the last digit of every row that starts with one of `names`."""
    def apply(text):
        lines = text.split("\n")
        hit = False
        for i, line in enumerate(lines):
            if line.split()[:1] and line.split()[0] in names:
                j = max(k for k, c in enumerate(line) if c.isdigit())
                lines[i] = line[:j] + str((int(line[j]) + 1) % 10) + line[j + 1:]
                hit = True
        assert hit, f"no row starts with one of {names}"
        return "\n".join(lines)
    return apply


def fail_frac(attempted, failures):
    return len(failures) / attempted


def main():
    problems = []

    def holds(what, ok, detail=""):
        print(f"{'ok' if ok else 'FAILED'}: {what}{detail}")
        if not ok:
            problems.append(what)

    def expect(what, frac, positive):
        ok = (frac > 0 if positive else frac == 0) and 0 <= 1 - frac <= 1
        holds(what, ok, f": fail_frac {frac:.3f}")

    for name in ("predict", "timing"):
        spec = run.WORKLOADS[name]
        clean = dict(rc=0, report=bench_output(spec))
        expect(f"{name} goldens unchanged", fail_frac(*run.check_bench(spec, clean)), False)
    altered = [
        ("predict", "table3 compress", {"table3": alter_row("compress")}, True),
        ("predict", "ablation_predictor doduc", {"ablation_predictor": alter_row("doduc")}, True),
        ("timing", "fig6 xlisp", {"fig6": alter_row("xlisp")}, True),
        ("timing", "ablation_machine 620x4", {"ablation_machine": alter_row("620x4")}, True),
        # Subset means may differ from the full-suite golden in numbers.
        ("timing", "fig6 GM", {"fig6": alter_row("GM")}, False),
        # Every fast row of all three reports: one failure per report.
        ("timing", "every fast", {exp: alter_row(*run.FAST, *run.SUBSET_MEAN_ROWS["ablation_machine"])
                    for exp in ("fig6", "table6", "ablation_machine")}, True),
    ]
    for name, rows, alter, positive in altered:
        spec = run.WORKLOADS[name]
        bad = dict(rc=0, report=bench_output(spec, alter))
        expect(f"{name} with {rows} rows altered", fail_frac(*run.check_bench(spec, bad)), positive)

    # A snapshot is live while results/ holds the file it was taken
    # against, and retires once that file changes.
    holds("ablation_predictor snapshot live", run.snapshot("ablation_predictor", False) is not None)
    root = run.ROOT
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "results"))
        shutil.copy(run.snapshot("ablation_predictor", False), os.path.join(tmp, "results"))
        run.ROOT = tmp
        try:
            retired = run.snapshot("ablation_predictor", False) is None
            text, exact = run.golden("ablation_predictor", False)
            retired = retired and exact and text == run.read(os.path.join(tmp, "results", "ablation_predictor.txt"))
        finally:
            run.ROOT = root
    holds("ablation_predictor snapshot retires once results/ changes", retired)

    with tempfile.TemporaryDirectory() as cache:
        for i in range(16):
            open(os.path.join(cache, f"cell{i}.lvpc"), "w").close()
        report = "\n".join(run.CHECK_VERDICTS) + "\n"
        expect("check-warm verdicts present", fail_frac(*run.check_check(dict(rc=1, report=report), cache)), False)
        failing = report.replace("value-flow: PASS", "value-flow: FAIL")
        expect("check-warm with a failing oracle", fail_frac(*run.check_check(dict(rc=1, report=failing), cache)), True)

    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
