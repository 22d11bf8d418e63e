#!/usr/bin/env python3
"""Test driver for scripts/frugal_analyze (ctest label: analyze).

Seven suites:

1. Fixture TUs under tests/analyze/fixtures/: one known-bad snippet per
   check plus all-clean trees. Expected findings are written *in* the
   fixtures as `// EXPECT:<check-id>` markers on the exact line the
   diagnostic must anchor to; the driver asserts the analyzer's finding
   set equals the marker set (nothing missing, nothing extra) and that
   the eleven check ids are collectively covered. The `deep` /
   `deepclean` trees exercise the v2 call-graph summaries: transitive
   rank inversion, CV wait below a Spinlock section, publication
   pairing, and recursion cycles the fixpoint must survive.
2. Call-path notes: the deep findings must carry the full chain as
   `note:` continuation lines down to the bottom frame.
3. A synthetic clang -ast-dump=json walk through
   frontend_clang.collect_from_ast — the clang frontend's extraction is
   unit-tested even on hosts without clang++ (this repo's CI container),
   and the extracted facts are pushed through run_checks end to end.
4. The LOCK_RANKS table in frugal_analyze.project cross-checked against
   the enumerators in src/common/lock_rank.h.
5. Incremental-cache invalidation: mutating a header re-extracts every
   file whose quoted-include closure contains it, not just the header.
6. `--format=sarif` emits valid SARIF 2.1.0 with one result per finding.
7. check.sh's atomics gate (the analyzer's atomics-relaxed and
   atomics-raw checks over tests, bench and examples): fires on the bad
   fixtures, stays quiet on the clean tree, exit codes 1 / 0.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(TESTS))
SCRIPTS = os.path.join(REPO, "scripts")
FIXTURES = os.path.join(TESTS, "fixtures")

sys.path.insert(0, SCRIPTS)

from frugal_analyze.checks import CHECK_IDS, CheckConfig, run_checks  # noqa: E402
from frugal_analyze.facts import ProjectFacts  # noqa: E402
from frugal_analyze import frontend_clang  # noqa: E402
from frugal_analyze.project import LOCK_RANKS  # noqa: E402

EXPECT_RE = re.compile(r"EXPECT:([\w-]+)")
DIAG_RE = re.compile(r"^(.*?):(\d+): ([\w-]+): ")

failures = []


def check(cond, label):
    print(f"  {'ok  ' if cond else 'FAIL'} {label}")
    if not cond:
        failures.append(label)


def expected_findings(root):
    """(src-relative path, line, check-id) triples from EXPECT markers."""
    out = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for lineno, text in enumerate(f, 1):
                    for m in EXPECT_RE.finditer(text):
                        out.add((rel, lineno, m.group(1)))
    return out


def run_analyzer(src_root, *extra):
    cmd = [sys.executable, os.path.join(SCRIPTS, "frugal_analyze"),
           "--frontend", "internal", "--no-cache", "--no-baseline",
           "--src-root", src_root, src_root, *extra]
    return subprocess.run(cmd, capture_output=True, text=True)


def parse_findings(stdout):
    out = set()
    for line in stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            out.add((m.group(1), int(m.group(2)), m.group(3)))
    return out


def test_fixtures():
    print("== fixture TUs ==")
    covered = set()
    for name, extra, want_exit in (
            ("layering", (), 1),
            ("bad", ("--hot", "FixtureHotLoop"), 1),
            ("clean", ("--hot", "FixtureHotLoop"), 0),
            ("deep", (), 1),
            ("deepclean", (), 0)):
        src = os.path.join(FIXTURES, name, "src")
        proc = run_analyzer(src, *extra)
        want = expected_findings(src)
        got = parse_findings(proc.stdout)
        covered |= {c for _, _, c in want}
        check(proc.returncode == want_exit,
              f"{name}: exit code {proc.returncode} == {want_exit}")
        check(got == want, f"{name}: findings == EXPECT markers "
                           f"({len(want)} expected)")
        for f in sorted(want - got):
            print(f"    missing: {f}")
        for f in sorted(got - want):
            print(f"    surplus: {f}")
    check(covered == set(CHECK_IDS),
          f"fixtures cover every check id ({', '.join(sorted(covered))})")


def test_deep_call_path():
    """The transitive findings must carry the full chain as notes."""
    print("== deep-chain call paths ==")
    proc = run_analyzer(os.path.join(FIXTURES, "deep", "src"))
    out = proc.stdout
    check("note: calls mid_.HopOne while holding row_lock_" in out,
          "lock-rank-deep head note names the held lock")
    for hop in ("note: at pq/deep_rank.h:42: calls mid_.HopTwo",
                "note: at pq/deep_rank.h:30: calls bottom_.AcquireEntry",
                "note: at pq/deep_rank.h:18: "
                "acquires entry_lock_ (LockRank::kGEntry)"):
        check(hop in out, f"lock-rank-deep trace hop: {hop[9:]}")
    check("3 frame(s) deep" in out,
          "lock-rank-deep reports the chain depth")
    check("note: at pq/deep_wait.h:14: cv-wait" in out,
          "spin-blocking trace bottoms out at the CV wait")
    check("note: at runtime/publish_pair.cc:39: load by 'SeqReader'"
          in out, "atomic-publish names the mispaired reader")


def _run_cached(src_root, cache_dir):
    cmd = [sys.executable, os.path.join(SCRIPTS, "frugal_analyze"),
           "--frontend", "internal", "--no-baseline", "--stats",
           "--cache-dir", cache_dir, "--src-root", src_root, src_root]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    m = re.search(r"cache hits=(\d+) misses=(\d+)", proc.stderr)
    return proc, (int(m.group(1)), int(m.group(2))) if m else None


def test_cache_invalidation():
    """Editing a header must re-extract every includer (the cache key
    folds in the quoted-include closure, not just the file's bytes)."""
    print("== incremental-cache include-closure invalidation ==")
    tmp = tempfile.mkdtemp(prefix="frugal_analyze_cache_")
    try:
        src = os.path.join(tmp, "src")
        cache = os.path.join(tmp, "cache")
        os.makedirs(os.path.join(src, "common"))
        os.makedirs(os.path.join(src, "pq"))
        header = os.path.join(src, "common", "dep_header.h")
        with open(header, "w", encoding="utf-8") as f:
            f.write("namespace frugal {\n"
                    "inline unsigned DepHelper(unsigned n)\n"
                    "{\n    return n + 1;\n}\n"
                    "}  // namespace frugal\n")
        with open(os.path.join(src, "pq", "user.cc"), "w",
                  encoding="utf-8") as f:
            f.write('#include "common/dep_header.h"\n\n'
                    "namespace frugal {\n"
                    "inline unsigned UseDep(unsigned n)\n"
                    "{\n    return DepHelper(n);\n}\n"
                    "}  // namespace frugal\n")
        _, s1 = _run_cached(src, cache)
        check(s1 == (0, 2), f"cold run extracts both files {s1}")
        _, s2 = _run_cached(src, cache)
        check(s2 == (2, 0), f"warm run hits both files {s2}")
        with open(header, "a", encoding="utf-8") as f:
            f.write("// comment edit invalidating the closure\n")
        _, s3 = _run_cached(src, cache)
        check(s3 == (0, 2),
              f"header edit re-extracts header AND includer {s3}")
        _, s4 = _run_cached(src, cache)
        check(s4 == (2, 0), f"stable again after the edit {s4}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_sarif_output():
    print("== SARIF output ==")
    src = os.path.join(FIXTURES, "bad", "src")
    proc = run_analyzer(src, "--hot", "FixtureHotLoop",
                        "--format", "sarif")
    check(proc.returncode == 1, "sarif run keeps the exit code")
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        doc = None
    check(doc is not None, "sarif output parses as JSON")
    if doc is None:
        return
    check(doc.get("version") == "2.1.0", "sarif version 2.1.0")
    runs = doc.get("runs") or [{}]
    results = runs[0].get("results", [])
    want = expected_findings(src)
    check(len(results) == len(want),
          f"one sarif result per finding ({len(results)})")
    rules = {r["id"] for r in
             runs[0].get("tool", {}).get("driver", {}).get("rules", [])}
    check(set(CHECK_IDS) <= rules, "sarif rules table covers all checks")
    check(all(r.get("ruleId") in rules and
              r.get("partialFingerprints", {}).get("frugalAnalyzeKey/v1")
              for r in results),
          "results carry ruleIds and stable fingerprints")


# A hand-written miniature of `clang++ -Xclang -ast-dump=json` output:
# one record with a ranked lock pair, a guarded member, an unguarded
# member, and a method whose body nests guards in inverted order, calls
# compare_exchange with a forbidden failure order, uses a relaxed load,
# allocates with `new`, release-stores an atomic member nobody loads,
# and waits on a CV while both guards are still active.
_FIXTURE_TU = "/ast/pq/fixture.cc"
_AST = {
    "kind": "TranslationUnitDecl",
    "inner": [{
        "kind": "CXXRecordDecl", "name": "AstFixture",
        "completeDefinition": True,
        "loc": {"file": _FIXTURE_TU, "line": 3},
        "inner": [
            {"kind": "FieldDecl", "name": "row_lock_",
             "loc": {"line": 4},
             "type": {"qualType": "frugal::Spinlock"},
             "inner": [{"kind": "CXXConstructExpr", "inner": [
                 {"kind": "DeclRefExpr",
                  "referencedDecl": {"name": "kTableRow"}}]}]},
            {"kind": "FieldDecl", "name": "lock_",
             "loc": {"line": 5},
             "type": {"qualType": "frugal::Spinlock"},
             "inner": [{"kind": "CXXConstructExpr", "inner": [
                 {"kind": "DeclRefExpr",
                  "referencedDecl": {"name": "kGEntry"}}]}]},
            {"kind": "FieldDecl", "name": "pending_",
             "loc": {"line": 6},
             "type": {"qualType": "unsigned int"},
             "inner": [{"kind": "GuardedByAttr", "inner": [
                 {"kind": "MemberExpr", "name": "lock_"}]}]},
            {"kind": "FieldDecl", "name": "bare_",
             "loc": {"line": 7},
             "type": {"qualType": "int"}},
            {"kind": "CXXMethodDecl", "name": "Bad",
             "loc": {"line": 8},
             "inner": [{"kind": "CompoundStmt", "inner": [
                 {"kind": "DeclStmt", "inner": [
                     {"kind": "VarDecl", "name": "g1",
                      "loc": {"line": 9},
                      "type": {"qualType": "frugal::SpinGuard"},
                      "inner": [{"kind": "DeclRefExpr",
                                 "referencedDecl":
                                     {"name": "row_lock_"}}]}]},
                 {"kind": "DeclStmt", "inner": [
                     {"kind": "VarDecl", "name": "g2",
                      "loc": {"line": 10},
                      "type": {"qualType": "frugal::SpinGuard"},
                      "inner": [{"kind": "MemberExpr",
                                 "name": "lock_"}]}]},
                 {"kind": "CXXNewExpr",
                  "range": {"begin": {"line": 11}}},
                 {"kind": "DeclRefExpr", "loc": {"line": 12},
                  "referencedDecl": {"name": "memory_order_relaxed"}},
                 {"kind": "CXXMemberCallExpr",
                  "range": {"begin": {"line": 13}},
                  "inner": [
                      {"kind": "MemberExpr",
                       "name": "compare_exchange_strong"},
                      {"kind": "DeclRefExpr",
                       "referencedDecl":
                           {"name": "memory_order_acq_rel"}},
                      {"kind": "DeclRefExpr",
                       "referencedDecl":
                           {"name": "memory_order_release"}}]},
                 {"kind": "CXXMemberCallExpr",
                  "range": {"begin": {"line": 15}},
                  "inner": [
                      {"kind": "MemberExpr", "name": "store",
                       "inner": [
                           {"kind": "MemberExpr", "name": "ready_",
                            "inner": [{"kind": "CXXThisExpr"}]}]},
                      {"kind": "DeclRefExpr",
                       "referencedDecl":
                           {"name": "memory_order_release"}}]},
                 {"kind": "CXXMemberCallExpr",
                  "range": {"begin": {"line": 16}},
                  "inner": [
                      {"kind": "MemberExpr", "name": "wait",
                       "inner": [
                           {"kind": "MemberExpr", "name": "cv_",
                            "inner": [{"kind": "CXXThisExpr"}]}]}]},
             ]}]},
            {"kind": "FieldDecl", "name": "ready_",
             "loc": {"line": 14},
             "type": {"qualType": "std::atomic<int>"}},
        ],
    }],
}


def test_clang_ast_walk():
    print("== synthetic clang AST walk ==")
    rel = "pq/fixture.cc"
    files = frontend_clang.collect_from_ast(
        _AST, lambda p: rel if p == _FIXTURE_TU else None)
    check(rel in files, "TU mapped through want_file()")
    ff = files[rel]
    members = {m.name: m for m in ff.classes[0].members} \
        if ff.classes else {}
    check(members.get("lock_") is not None and
          members["lock_"].lock_type == "Spinlock" and
          members["lock_"].lock_rank == "kGEntry",
          "FieldDecl -> lock member with ctor rank")
    check(members.get("pending_") is not None and
          members["pending_"].guarded_by == "lock_",
          "GuardedByAttr -> guarded_by")
    fns = [fn for fn in ff.functions if fn.name == "Bad"]
    check(bool(fns), "CXXMethodDecl with body -> FunctionFacts")
    fn = fns[0] if fns else None
    check(fn is not None and len(fn.nests) == 1 and
          fn.nests[0].inner == "lock_" and
          fn.nests[0].outers == ["row_lock_"] and
          fn.nests[0].line == 10,
          "guard VarDecls -> nested guard scopes")
    check(fn is not None and
          any(a.what == "new" and a.line == 11 for a in fn.allocs),
          "CXXNewExpr -> alloc site")
    check(ff.relaxed_lines == [12], "relaxed DeclRefExpr -> relaxed line")
    check(len(ff.cmpxchg) == 1 and ff.cmpxchg[0].success == "acq_rel" and
          ff.cmpxchg[0].failure == "release" and
          ff.cmpxchg[0].line == 13,
          "compare_exchange orders extracted")
    check(fn is not None and
          any(s.op == "store" and s.member == "ready_" and
              s.owner == "AstFixture" and s.order == "release" and
              s.line == 15 for s in ff.atomic_ops),
          "atomic member store -> AtomicOpSite with owner and order")
    check(fn is not None and
          any(b.what == "cv-wait" and b.line == 16 and
              "row_lock_" in b.held for b in fn.blocking),
          "CV wait -> BlockingSite with the active guards held")

    # The AST-sourced facts must drive the same checks end to end.
    project = ProjectFacts()
    project.files[rel] = ff
    got = {(d.check, d.line) for d in run_checks(project, CheckConfig())}
    for want in (("lock-rank", 10), ("tsa-coverage", 7),
                 ("atomics-relaxed", 12), ("atomics-cmpxchg", 13),
                 ("atomic-publish", 15), ("spin-blocking", 16)):
        check(want in got, f"run_checks on AST facts reports {want}")


def test_lock_ranks_in_sync():
    print("== LOCK_RANKS vs src/common/lock_rank.h ==")
    path = os.path.join(REPO, "src", "common", "lock_rank.h")
    with open(path, encoding="utf-8") as f:
        declared = dict(re.findall(r"(k\w+)\s*=\s*(\d+)", f.read()))
    for name, val in sorted(LOCK_RANKS.items()):
        check(declared.get(name) == str(val),
              f"LockRank::{name} == {val}")
    check(set(declared) == set(LOCK_RANKS),
          "no enumerator missing from either side")


def test_atomics_gate():
    """check.sh's atomics gate over tests, bench and examples (src/ is
    covered by the full analyzer run): the analyzer's atomics-relaxed
    and atomics-raw checks against an empty baseline."""
    print("== atomics gate (check.sh stage 3) ==")
    gate = [sys.executable, os.path.join(SCRIPTS, "frugal_analyze"), "-q",
            "--no-baseline", "--checks", "atomics-relaxed,atomics-raw"]
    bad_src = os.path.join(FIXTURES, "bad", "src")
    bad = subprocess.run(
        gate + ["--src-root", bad_src,
                os.path.join(bad_src, "pq", "unjustified_relaxed.cc"),
                os.path.join(bad_src, "pq", "raw_atomic.h")],
        capture_output=True, text=True)
    check(bad.returncode == 1, "bad fixture files: exit 1")
    check("atomics-relaxed" in bad.stdout and "atomics-raw" in bad.stdout,
          "bad fixture files: both atomics checks fire")
    clean_src = os.path.join(FIXTURES, "clean", "src")
    clean = subprocess.run(
        gate + ["--src-root", clean_src,
                os.path.join(clean_src, "pq", "all_clean.cc")],
        capture_output=True, text=True)
    check(clean.returncode == 0, "clean fixture file: exit 0")
    # The exact check.sh invocation: `tests/*.cc` (not `tests`) keeps the
    # known-bad fixture corpus out of the walk.
    tests_cc = sorted(glob.glob(os.path.join(REPO, "tests", "*.cc")))
    tree = subprocess.run(gate + tests_cc + ["bench", "examples"],
                          cwd=REPO, capture_output=True, text=True)
    check(tree.returncode == 0,
          f"tests/*.cc bench examples: exit 0 {tree.stdout[-400:]}")


def test_cli_surface():
    print("== CLI surface ==")
    analyzer = os.path.join(SCRIPTS, "frugal_analyze")
    ex = subprocess.run([sys.executable, analyzer, "--explain",
                         "lock-rank"], capture_output=True, text=True)
    check(ex.returncode == 0 and "lock-rank" in ex.stdout,
          "--explain lock-rank")
    bogus = subprocess.run([sys.executable, analyzer, "--explain",
                            "bogus"], capture_output=True, text=True)
    check(bogus.returncode == 2, "--explain bogus exits 2 (usage)")
    ls = subprocess.run([sys.executable, analyzer, "--list-checks"],
                        capture_output=True, text=True)
    check(ls.returncode == 0 and
          all(cid in ls.stdout for cid in CHECK_IDS),
          "--list-checks names every check")


def main():
    test_fixtures()
    test_deep_call_path()
    test_clang_ast_walk()
    test_lock_ranks_in_sync()
    test_cache_invalidation()
    test_sarif_output()
    test_atomics_gate()
    test_cli_surface()
    if failures:
        print(f"\n{len(failures)} analyze subtest(s) FAILED")
        return 1
    print("\nall analyze subtests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
