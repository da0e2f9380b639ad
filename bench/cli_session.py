"""cli-session: one ``python -m hompoisson.cli`` process per command.

Every subcommand runs on small seeded spec files, in ``--format text`` and
``--format json`` in turn.  Each command computes for milliseconds but costs
interpreter start and import, so this is the only workload that sees import
time, ``specfile`` parse and emit, and rendering.  ``witness
heisenberg-rigidity`` is left out on purpose: as a single multi-second job it
would set ``jobs_per_s`` on its own; its loop is measured by morphism-scan.

Two commands are expected to exit 2 (input errors): a malformed spec, and
``catalog matrix --param n=0``.  The latter exits 1 with a traceback, a known
defect that stays in the workload and counts as failed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
from fractions import Fraction

from harness import Job

ZETAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(3, 2))
SCALES = (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2), Fraction(5))
WITNESSES = ("free-poly", "matrix", "sl2", "r2n")
TIMEOUT_S = 120
# Known defect: a traceback and exit 1 instead of exit 2.  (label prefix, reason)
KNOWN_DEFECTS = (("catalog matrix --param n=0 [", "exit-code"),)


def build(lib, rng, workdir, smoke=False):
    """Write the seeded spec files (timed as set-up); return the command list."""
    cat, con, spec = lib.catalog, lib.constructions, lib.specfile
    z1, z2 = rng.sample(ZETAS, 2)
    a, b = cat.heisenberg_p31(z1), cat.heisenberg_p31(z2)
    beta = cat.heisenberg_morphism(rng.choice(SCALES), 0, 0, rng.choice(SCALES),
                                   rng.choice(SCALES), rng.choice(SCALES))
    single = con.depolarize(a)
    yau = con.yau_twist(con.commutator_poisson(cat.matrix_algebra(2)),
                        cat.conjugation_morphism(2, rng.choice(SCALES)))
    yau_single = lib.algebra.HomAlgebra(basis=yau.basis, mu=yau.mu, alpha=yau.alpha)
    corrupt_at = rng.choice([(0, 0, 2), (1, 1, 2), (0, 2, 1), (2, 0, 1)])
    bad = dataclasses.replace(a, bracket=a.bracket.with_entry(*corrupt_at, rng.choice(SCALES)))

    def path(name):
        return os.path.join(workdir, name)

    spec.emit_spec(a, path("a.json"))
    spec.emit_spec(b, path("b.json"))
    spec.emit_map(beta, path("beta.json"))
    spec.emit_spec(single, path("single.json"))
    spec.emit_spec(yau_single, path("yau.json"))
    spec.emit_spec(bad, path("bad.json"))
    with open(path("malformed.json"), "w", encoding="utf-8") as fh:
        fh.write('{"format": "hom-poisson-algebra/1", "dim": 3, "basis": ["X", "Y"], "mu": []}\n')

    commands = [
        (["catalog", "heisenberg-p31", "--param", f"zeta={z1}", "--out", path("cat.json")], 0),
        (["check", path("a.json")], 0),
        (["twist", path("a.json"), "--by", path("beta.json"), "--out", path("tw.json")], 0),
        (["tensor", path("a.json"), path("b.json"), "--out", path("ab.json")], 0),
        (["polarize", path("single.json"), "--out", path("pol.json")], 0),
        (["depolarize", path("a.json"), "--out", path("dep.json")], 0),
        (["power", path("yau.json"), "--max-n", "4"], 0),
    ]
    commands += [(["witness", name], 0) for name in WITNESSES]
    commands += [
        (["check", path("bad.json")], 1),
        (["check", path("malformed.json")], 2),
        (["catalog", "matrix", "--param", "n=0"], 2),
    ]
    if smoke:
        commands = commands[:2] + commands[-3:]
    return commands


def _judge(proc, want, fmt):
    code, out = proc
    if code != want:
        return "exit-code", f"exit {code}, expected {want}"
    if want == 2:
        return None
    if fmt == "json":
        try:
            passed = json.loads(out)["passed"]
        except (ValueError, KeyError, TypeError) as exc:
            return "wrong-verdict", f"unparsable JSON report: {exc}"
    else:
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if last not in ("RESULT: PASS", "RESULT: FAIL"):
            return "wrong-verdict", f"no RESULT line (last line {last!r})"
        passed = last == "RESULT: PASS"
    if passed != (want == 0):
        return "wrong-verdict", f"passed={passed} with exit {code}"
    return None


def run_child(argv, env, root):
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout


def jobs_for(commands, root, child_prefix, env_for):
    """One job per (command, format).  ``child_prefix`` is the interpreter
    invocation; ``env_for(job index)`` gives the child environment."""
    jobs = []
    for cmd, want in commands:
        for fmt in ("text", "json"):
            argv = list(child_prefix) + cmd + ["--format", fmt]
            idx = len(jobs)

            def make(argv=argv, idx=idx):
                env = env_for(idx)
                return lambda: run_child(argv, env, root)

            def judge(proc, want=want, fmt=fmt):
                return _judge(proc, want, fmt)

            label = " ".join(os.path.basename(c) if os.path.isabs(c) else c for c in cmd) + f" [{fmt}]"
            jobs.append(Job(label, make, judge, group=cmd[0]))
    return jobs


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
