"""The repository's source rules and structural guards, one row each: a rule of
DESIGN.md and the pattern whose return would break it.  A row reads the files ``git
ls-files`` lists under its scope (pathspecs; ``*`` matches ``/``) but this one,
finds the lines that match and that its allow-list (a regex over
``path:line:text``) does not, and holds when what it finds, by ``kind``, is
exactly ``expect``.  It must fail on each of its ``plants`` (``path:text``,
appended in memory).  A ``basic`` pattern is grep's basic syntax.  The
reference rule at the end reads syntax trees instead of lines.
"""

from __future__ import annotations

import ast
import fnmatch
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import pytest

from repro.net.message import MessageType

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()
SRC, CODE, CI = ("src/repro",), ("src", "tests", "examples"), ".github/workflows/ci.yml"
AUDIT = ("An audit verifies from scratch", '§5 "One audit checks each co-sign once"')
RUNNER, LEDGER = ("One runner", "§7, §8.2"), ("One traffic ledger", "§12")
BLOCK = ("One block rule", '§5 "Who must have signed"')
ANCHOR = ("One anchor rule", '§5 "Epoch anchors and the trust argument"')
CONTRACT = ("One contract for the sweeps", '§7 "One contract"')
COSI = ("One CoSi flow", '§10 "The round lifecycle: two transition tables"')
RULES = '§11 "The source rules"'
PROTOCOL = tuple(f"src/repro/{package}" for package in (
    "core", "server", "net", "ledger", "recovery", "storage", "txn", "crypto", "sim"))


@dataclass(frozen=True)
class Guard:
    step: str
    section: str
    scope: Tuple[str, ...]
    pattern: Optional[str]
    allow: Optional[str] = None
    plants: Tuple[str, ...] = ()
    kind: str = "lines"
    expect: Tuple[str, ...] = ()
    basic: bool = False


GUARDS = (
    Guard("The source rules are rows, no second analyzer", RULES, CODE + (CI,),
          r"repro\.check\.static|check/static/|# static: allow",
          plants=('src/repro/check/__init__.py:    "static": "repro.check.static",',
                  f"{CI}:        run: python -m repro.check.static --root src/repro",
                  "src/repro/core/rounds.py:    return time.time()  # static: allow")),
    Guard("No hand-rolled byte memo", '§6 "Who owns the bytes"', SRC,
          r"CANONICAL_CACHEABLE|_canonical_cache|_encoded_cache|_digest_cache|_group_digest_cache",
          plants=("src/repro/ledger/block.py:        self._digest_cache = {}",)),
    Guard(*AUDIT, ("src/repro/crypto/group.py",), r"@functools\.cache", basic=True, kind="after",
          expect=("@functools.cache", "def _generator_table() -> _WindowTable:"),
          plants=("src/repro/crypto/group.py:@functools.cache\ndef _verdict(key):",)),
    Guard(*AUDIT, ("src/repro/audit", "src/repro/ledger/log.py", "src/repro/crypto"),
          r"lru_cache|functools\.cache\b|@cache\b|^[A-Za-z_][A-Za-z0-9_]*\s*(:[^=]*)?=\s*(\{|dict\(|defaultdict\(|OrderedDict\(|WeakKeyDictionary\(|WeakValueDictionary\(|_[A-Z][A-Za-z0-9]*\()",
          r"^src/repro/crypto/(group\.py:[0-9]+:(@functools\.cache|_KEY_TABLES = _KeyTables\(\))|signing\.py:[0-9]+:_SCHEMES = \{)$",
          plants=("src/repro/audit/auditor.py:_VERDICTS = {}", "src/repro/ledger/log.py:@cache",
                  "src/repro/crypto/group.py:_VERDICTS: dict = dict()")),
    Guard("Declared owners of bytes", '§6 "Who owns the bytes"', SRC, "owns_bytes=True",
          kind="files", expect=("src/repro/ledger/block.py", "src/repro/txn/transaction.py"),
          plants=("src/repro/net/forms.py:@wire_form(owns_bytes=True)",), basic=True),
    # Each of the four stores into its own __dict__: wire.kept, or the co-sign verdict memo.
    # A decorator left open on its line without slots=True counts too: frozen=True may follow.
    Guard("Value classes carry no dict", '§6 "Who owns the bytes"', SRC,
          r"^\s*@(dataclasses\.)?dataclass\((?![^)]*slots=True)([^)]*frozen=True|[^)]*$)",
          kind="after",
          expect=tuple(line for name in ("CollectiveSignature", "PublicKey", "Block", "Transaction")
                       for line in ("@dataclass(frozen=True)", f"class {name}:")),
          plants=("src/repro/net/forms.py:@dataclass(frozen=True)\nclass Ack:",
                  "src/repro/common/timestamps.py:@dataclass(order=True, frozen=True)\nclass Stamp:",
                  "src/repro/txn/operations.py:@dataclasses.dataclass(frozen=True, slots=False)",
                  "src/repro/net/forms.py:@dataclass(\n    frozen=True,\n)\nclass Ack:",
                  "src/repro/ledger/log.py:@dataclass(frozen=True)\nclass Transaction:")),
    Guard("No generic decode of bytes at rest", '§6 "Reading bytes at rest"', SRC,
          r"import.*\bcanonical_decode\b|\bencoding\.canonical_decode\b|^\s*canonical_decode,?$|_iter_records",
          r"^src/repro/common/encoding\.py:",
          plants=("src/repro/recovery/wire.py:from repro.common.encoding import canonical_decode",
                  "src/repro/ledger/log.py:    canonical_decode,")),
    Guard("One spelling of the genesis stamp", '§6 "Reading bytes at rest"', SRC, "Timestamp(0",
          r"^src/repro/common/timestamps\.py:", basic=True,
          plants=('src/repro/storage/record.py:ZERO = Timestamp(0, "")',)),
    Guard("One genesis version", '§6 "One genesis version"', SRC,
          r"RecordVersion\([^)]*(zero|INITIAL_VALUE)", r"^src/repro/storage/record\.py:",
          plants=("src/repro/storage/datastore.py:v = RecordVersion(INITIAL_VALUE, ZERO, ZERO)",)),
    # The one exception: the AUDIT_LOG_REQUEST reply is no declared form yet (ROADMAP item 6).
    Guard("No ad-hoc message dicts", '§6 "The message table"',
          tuple(f"src/repro/{p}" for p in ("server", "core", "client", "recovery", "audit")),
          r'payload\[|payload\.get\(|\.get\("ok"\)|\["ok"\]|"ok": (True|False)|(response|mine)(\.get\(|\[)',
          r'audit/auditor.py:[0-9]+: +(logs\[server_id\] = response\["log"\]|checkpoint = response\.get\("checkpoint"\))$',
          plants=('src/repro/server/server.py:        value = payload["value"]',
                  'src/repro/audit/auditor.py:        height = response["height"]')),
    Guard(*RUNNER, CODE, r"CampaignRunner|CampaignConfig|DetectionResult|run_campaign",
          plants=("src/repro/faultsim/plan.py:CampaignRunner = None",
                  'tests/check/traces/pr3-round-failed-leak.json:"run_campaign"')),
    Guard(*RUNNER, SRC, r"tiny_config|make_scenario|build_system|DEFAULT_CONFIG",
          plants=("src/repro/check/scenarios.py:def build_system(config):",)),
    Guard(*RUNNER, CODE,
          r"ClassicCrashScenario|ClassicByzantineScenario|ViewChangeScenario|ScaledReorderScenario|ShardedOrderingScenario",
          plants=("examples/quickstart.py:class ViewChangeScenario:",)),
    Guard(*LEDGER, CODE, r"NetworkStats|attach_sim|attach_obs|network\.stats|stats\.record\(",
          plants=("tests/net/test_network.py:    network.attach_obs(obs)",)),
    Guard(*LEDGER, ("src/repro/net", "src/repro/core/sequencing.py"),
          r"(obs|_sim|_obs) is not None",
          plants=("src/repro/core/sequencing.py:        if self._obs is not None:",)),
    Guard(*BLOCK, SRC, "cosi_verify(", basic=True,
          allow=r"^src/repro/(crypto/cosi|ledger/log|core/tfcommit|client/client|check/invariants)\.py:",
          plants=("src/repro/audit/auditor.py:        cosi_verify(cosign, digest, keys)",)),
    Guard(*BLOCK, SRC, r"set\([A-Za-z_.]*signer_ids\)",
          r"^src/repro/(ledger/log|check/invariants)\.py:",
          plants=("src/repro/audit/auditor.py:    if set(cosign.signer_ids) != keys:",)),
    Guard(*BLOCK, CODE, "verify_log_against_checkpoint", basic=True,
          plants=("tests/ledger/test_log.py:verify_log_against_checkpoint(log, cp)",)),
    Guard(*ANCHOR, SRC, "fold_shard_head(", r"^src/repro/(ledger/anchor|core/sequencing)\.py:",
          basic=True, plants=("src/repro/audit/auditor.py:    head = fold_shard_head(head, block)",)),
    *(Guard(*ANCHOR, SRC, rf"def {rule}\b", kind="once",
            plants=(f"src/repro/audit/auditor.py:def {rule}(a):\ndef {rule}(b):",))
      for rule in ("replay_shard_chains", "verify_anchor_chain", "verify_anchor_link")),
    Guard(*COSI, CODE, r"CoSiWitness|CoSiCoordinator|run_cosi_round",
          plants=("src/repro/crypto/cosi.py:class CoSiWitness:",
                  "tests/ledger/test_log.py:from repro.crypto.cosi import run_cosi_round")),
    Guard("One nonce", COSI[1], SRC, "cosi-nonce", kind="once", basic=True,
          plants=('src/repro/server/commitment.py:    seed = hash_concat(b"cosi-nonce", secret, record)',)),
    Guard("No anchor broadcast", "§5", SRC,
          r"EPOCH_ANCHOR|AnchorSealed|subscribe_anchors|broadcast_anchor|_on_epoch_anchor",
          plants=('src/repro/net/message.py:    EPOCH_ANCHOR = "epoch_anchor"',)),
    Guard(*CONTRACT, ("benchmarks/bench_*.py", "benchmarks/baseline.json"), None,
          plants=("benchmarks/bench_audit.py:", "benchmarks/baseline.json:{}")),
    Guard(*CONTRACT, CODE + ("benchmarks/*.py", "pyproject.toml", "setup.py"),
          r"repro\.bench\.gate|benchmarks/baseline\.json|benchmark\.pedantic|pytest-benchmark",
          plants=("benchmarks/perf/run.py:import repro.bench.gate",
                  'pyproject.toml:dev = ["pytest-benchmark"]')),
    Guard("Silent peers are refusals built in one place", '§6 "The message table"', SRC,
          'unreachable": True', basic=True,
          plants=('src/repro/core/tfcommit.py:        replies[peer] = {"unreachable": True}',)),
    Guard("No pairwise batch scan", '§3 "What batch formation costs"',
          ("src/repro/core/rounds.py", "src/repro/sim/scheduler.py"), r"\bconflicts_with\(",
          r"^src/repro/core/rounds\.py:[0-9]+: +earlier = next\(e for e in transactions\[:index\] "
          r"if txn\.conflicts_with\(e\)\)$",
          plants=("src/repro/core/rounds.py:            if any(txn.conflicts_with(s) for s, _ in batch):",
                  "src/repro/sim/scheduler.py:                gated = prior.conflicts_with(read_items, write_items)")),
    Guard("The timeline keeps no events", "§7", SRC,
          r"heapq|run_until_idle|SimEvent|loop-order|Timeline|timeline\.record|sim\.fingerprint",
          plants=("src/repro/sim/clock.py:import heapq",)),
    Guard("The guards are this table", '§11 "The repository guards"', (CI,), "grep", basic=True,
          plants=(f"{CI}:        run: ! grep -rn heapq src/repro",)),
    Guard("wallclock: virtual time is the only clock", RULES, SRC,
          r"time\.time(_ns)?\(|\b(datetime|date)\.(now|utcnow|today)\("
          r"|from (time|datetime) import (\(|.*\b(time|time_ns|datetime|date)\b)",
          plants=("src/repro/bench/harness.py:    started = time.time()",
                  "src/repro/obs/trace.py:    when = datetime.now()",
                  "src/repro/obs/timing.py:from time import time",
                  "src/repro/bench/schema.py:from datetime import datetime as Clock")),
    Guard("unseeded-random: every draw is seeded", RULES, SRC,
          r"\brandom\.(?!Random\b)\w+\(|\bRandom\(\s*\)|from random import",
          plants=("src/repro/workload/ycsb.py:    jitter = random.random()",
                  "src/repro/net/latency.py:        self._rng = random.Random()",
                  "src/repro/workload/ycsb.py:from random import Random, random",
                  "src/repro/core/rounds.py:from random import choice as pick")),
    Guard("adhoc-timing: Stopwatch is the one timer", RULES, PROTOCOL,
          r"\b(perf_counter|monotonic|process_time)",
          plants=("src/repro/core/rounds.py:    started = time.perf_counter()",
                  "src/repro/core/rounds.py:    ticked = time.monotonic()",
                  "src/repro/core/rounds.py:from time import process_time")),
    Guard("no-print: output goes through obs", RULES, PROTOCOL, r"\bprint\s*\(",
          plants=('src/repro/core/rounds.py:    print("committed block", height)',)),
    Guard("bare-assert: invariants raise", RULES, PROTOCOL, r"(^\s*|[:;]\s*)assert\b",
          plants=('src/repro/core/rounds.py:    assert height >= 0, "heights are non-negative"',
                  "src/repro/sim/clock.py:        if now: assert now > 0")),
    Guard("broad-except: catch what the site expects", RULES, PROTOCOL,
          r"\b(Base)?Exception\b|\bexcept\s*:",
          plants=("src/repro/core/rounds.py:    except Exception:",
                  "src/repro/server/server.py:        except:",
                  "src/repro/net/network.py:    except (KeyError,\n            BaseException):")),
    Guard("builtin-raise: only FidesError leaves a handler", RULES, PROTOCOL,
          r"\braise\s+(\w+\.)*((Value|Key|Type|Index|Lookup|Attribute|Runtime|Arithmetic"
          r"|ZeroDivision|Overflow|Assertion|OS)Error|StopIteration)\b",
          plants=('src/repro/core/viewchange.py:def helper(x):\n    if x < 0:\n'
                  '        raise ValueError("never called from a handler")\n    return x',
                  "src/repro/storage/shard.py:        raise builtins.KeyError(key) from None")),
)


def violations(guard, tree):
    """What ``guard`` finds in ``tree`` (path -> text) if it fails, else ``[]``."""
    paths = [path for path in tree if any(
        path.startswith(spec + "/") or fnmatch.fnmatchcase(path, spec) for spec in guard.scope)]
    if guard.pattern is None:
        return paths
    pattern = guard.pattern
    if guard.basic:  # grep's basic syntax: ( and ) are literal, \( and \) group
        pattern = re.sub(r"\\?[()]", lambda m: m[0][-1] if len(m[0]) == 2 else "\\" + m[0], pattern)
    hits, after = [], []
    for path in paths:
        if re.search(pattern, tree[path], re.MULTILINE):
            lines = tree[path].split("\n")
            for number, line in enumerate(lines, 1):
                shown = f"{path}:{number}:{line}"
                if re.search(pattern, line) and not (guard.allow and re.search(guard.allow, shown)):
                    hits.append(shown)
                    after += lines[number - 1:number + 1]
    found = {"once": hits if len(hits) > 1 else [], "after": after,
             "files": sorted({hit.split(":", 1)[0] for hit in hits})}.get(guard.kind, hits)
    return [] if tuple(found) == guard.expect else found


@pytest.fixture(scope="module")
def tree():
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout.decode().split("\0")
    return {path: (ROOT / path).read_text("utf-8", "replace")
            for path in listed if path and path != SELF and (ROOT / path).is_file()}


@pytest.mark.parametrize("guard", GUARDS, ids=[f"{i:02d} {g.step}" for i, g in enumerate(GUARDS)])
def test_the_tree_keeps_each_rule(guard, tree):
    assert violations(guard, tree) == []
    assert guard.plants


@pytest.mark.parametrize("guard, plant", [(g, p) for g in GUARDS for p in g.plants], ids=[
    f"{i:02d}.{k} {p.split(':', 1)[0]}"
    for i, g in enumerate(GUARDS) for k, p in enumerate(g.plants)])
def test_each_plant_breaks_its_rule(guard, plant, tree):
    path, text = plant.split(":", 1)
    assert violations(guard, {**tree, path: tree.get(path, "") + "\n" + text}), plant


# -- The reference rule ---------------------------------------------------------------
#
# A function, class, method or module-level name assigned in src/repro is named
# somewhere in src/repro, benchmarks/ or examples/ -- what only tests reach is deleted
# or lives under tests/.  A name counts as named where code reads it (a ``Name`` or an
# ``Attribute`` in ``Load`` context) or imports it, except in a subpackage's
# ``__init__``, whose imports only re-export; the imports of ``repro.api`` make its
# exports named.  What the code finds by a computed name is derived from how it
# dispatches: dunders and the server's ``"_on_" + message type`` handlers
# (``DatabaseServer.handle``).

#: Named by nothing in the package, yet kept: safety code, one reason each.
UNREFERENCED_KEPT = {
    "src/repro/crypto/schnorr.py schnorr_verify":
        "the object-level verifier the signing tests hold the byte-level one to",
}
HANDLERS = frozenset("_on_" + message_type.value for message_type in MessageType)
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
NAMING = ("src/repro/", "benchmarks/", "examples/")


def _defined(node):
    """``(owner, name, line)`` of each name a module-level statement defines."""
    if isinstance(node, FUNCTION + (ast.ClassDef,)):
        yield "", node.name, node.lineno
    if isinstance(node, ast.ClassDef):
        yield from ((node.name + ".", method.name, method.lineno)
                    for method in node.body if isinstance(method, FUNCTION))
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            yield from (("", name.id, node.lineno) for name in ast.walk(target)
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))


def unreferenced(tree, kept=UNREFERENCED_KEPT):
    """``path:line Class.name`` of each definition in src/repro that nothing names."""
    named, defined = set(), []
    for path, text in tree.items():
        if not path.endswith(".py") or not path.startswith(NAMING):
            continue
        module = ast.parse(text)
        reexports = path.endswith("/__init__.py") and path.count("/") > 2
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                named.add(node.attr)
            elif isinstance(node, ast.alias) and not reexports:
                named.update(node.name.split("."))
        if path.startswith("src/repro/"):
            defined += [(path, *found) for node in module.body for found in _defined(node)]
    return [f"{path}:{line} {owner}{name}" for path, owner, name, line in defined
            if not (name in named or (name.startswith("__") and name.endswith("__"))
                    or name in HANDLERS or f"{path} {owner}{name}" in kept)]


def test_every_definition_in_the_package_is_named_outside_the_tests(tree):
    assert unreferenced(tree) == []
    # ... and no exemption outlives the need for it.
    assert {re.sub(r":[0-9]+ ", " ", found) for found in unreferenced(tree, kept=())} == set(
        UNREFERENCED_KEPT)


#: A plant appended to a module, and what the rule reports: (name, line within the plant).
_PLANTS = {
    "a function": ("def orphan(x):\n    return x\n", ("orphan", 1)),
    "a class": ("class Orphan:\n    pass\n", ("Orphan", 1)),
    "a method": ("class Holder:\n    def orphan(self):\n        return self\nHolder()\n",
                 ("Holder.orphan", 2)),
    "no message type's handler, a visit_ off a visitor": (
        "class Holder:\n    def _on_nothing(self, envelope):\n        return envelope\n"
        "    def visit_Name(self, node):\n        return node\nHolder()\n",
        ("Holder._on_nothing", 2), ("Holder.visit_Name", 4)),
    "a dunder, a method the module calls": (
        "class Holder:\n    def __repr__(self):\n        return 'h'\n"
        "    def used(self):\n        return self\nHolder().used()\n",),
    "a handler, a visitor's visit_": (
        "class Holder(ast.NodeVisitor):\n    def visit_Name(self, node):\n        return node\n"
        "    def _on_read(self, envelope):\n        return envelope\nHolder()\n",
        ("Holder.visit_Name", 2)),
    "unread constants": ("ORPHAN = 1\nTABLE: dict = {}\n", ("ORPHAN", 1), ("TABLE", 2)),
    "a constant its own module reads": ("LIMIT = 2\nmax(LIMIT, 1)\n",),
}


@pytest.mark.parametrize("plant", _PLANTS.values(), ids=_PLANTS)
def test_each_unnamed_definition_is_reported_where_it_is(plant, tree):
    path = "src/repro/storage/shard.py"
    text = tree[path] + "\n"
    end = text.count("\n")
    assert unreferenced({**tree, path: text + plant[0]}) == [
        f"{path}:{end + line} {name}" for name, line in plant[1:]]


#: A line added to another file beside a planted function -- where, what, and whether
#: the rule still reports the function.
IMPORT = "from repro.storage.shard import orphan"
_NAMERS = {
    "a test": ("tests/storage/test_shard.py", IMPORT, True),
    "a subpackage's re-export": ("src/repro/storage/__init__.py", IMPORT, True),
    "an assignment": ("examples/quickstart.py", "orphan = None", True),
    "an export of repro.api": ("src/repro/api.py", IMPORT, False),
    "an example": ("examples/quickstart.py", IMPORT, False),
    "a benchmark": ("benchmarks/perf/workloads.py", IMPORT, False),
}


@pytest.mark.parametrize("namer, line, reported", _NAMERS.values(), ids=_NAMERS)
def test_only_code_outside_the_tests_names_a_definition(namer, line, reported, tree):
    path = "src/repro/storage/shard.py"
    planted = {**tree, path: tree[path] + "\ndef orphan(x):\n    return x\n",
               namer: tree[namer] + "\n" + line + "\n"}
    assert [found.split()[-1] for found in unreferenced(planted)] == ["orphan"] * reported
