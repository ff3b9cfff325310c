"""The simulator-discipline linter (rules D1–D5).

The whole reproduction rests on invariants no unit test can state once and
for all — determinism of the cycle ledger, the obs plane never spending
time, digest preimages independent of dict iteration order.  These AST
rules enforce them statically over ``src/repro``:

====  ==================  ===================================================
ID    name                flags
====  ==================  ===================================================
D1    wall-clock          ``time.time``/``monotonic``/``perf_counter``
                          (dotted or imported bare via ``from time import``),
                          ``datetime.now``/``utcnow``/``today``, module-level
                          ``random.*``, unseeded ``random.Random()`` /
                          ``np.random.default_rng()`` — anything that makes a
                          run depend on the host instead of the cycle ledger.
                          Exempt: :data:`_D1_EXEMPT` — the host-time
                          profiler, where host wall-time *is* the measured
                          quantity (never fed into the cycle ledger)
D2    obs-read-only       ``.charge`` / ``.fast_forward`` / ``.count`` calls
                          from ``repro/obs`` modules (observability reads the
                          clock, it never spends it)
D3    ordered-preimage    hash constructors fed bare ``dict.items/keys/
                          values()`` (without ``sorted(...)``) or
                          ``json.dumps`` without ``sort_keys=True``
D4    blanket-except      bare ``except:`` and ``except Exception/
                          BaseException``
D5    cpu-attribution     ``.charge`` calls in ``repro/fleet`` outside any
                          ``with clock.on_cpu(...):`` scope and without an
                          explicit ``# serial-section`` marker on the line
D6    tcache-host-plane   any cycle-clock access from the translation cache
                          (``repro/hw/translate.py``): ``.charge`` /
                          ``.count`` / ``.fast_forward`` calls *and* reads
                          of ``.cycles`` or ``.clock``. Superblock build and
                          lookup are a host-speed plane; every charge they
                          caused out of program order would skew the
                          bit-exact ledger, so the module may not touch the
                          clock at all — execution charges live in the
                          block functions :mod:`repro.hw.cpu` emits,
                          flushed before anything can observe the clock
D7    fleet-commit-       mutations of scheduler/pool *shared* state
      discipline          (``queue``/``active``/``cores``/``finished``/
                          ``counts``/``slots``) from ``repro/fleet`` code
                          *inside* a ``with clock.on_cpu(...):`` scope.
                          Per-core execution may only touch per-session
                          state; shared structures commit on the serial,
                          core-ordered path outside any core pin (the
                          fixed interleaving seeded digests depend on),
                          or on a line marked ``# commit-path`` where the
                          serial order is established another way
====  ==================  ===================================================

Findings can be grandfathered through :mod:`repro.analysis.ratchet`; the
tree itself ships lint-clean.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: rule ID → short name (stable; referenced by the ratchet file and CI)
RULES = {
    "D1": "wall-clock",
    "D2": "obs-read-only",
    "D3": "ordered-preimage",
    "D4": "blanket-except",
    "D5": "cpu-attribution",
    "D6": "tcache-host-plane",
    "D7": "fleet-commit-discipline",
}

#: modules bound by D6 (path suffixes): the translation-cache plane
_D6_MODULES = ("repro/hw/translate.py",)

_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
})
_WALL_CLOCK_DATE_ATTRS = frozenset({"now", "utcnow", "today"})

#: modules exempt from D1 (path suffixes). Principled, not grandfathered:
#: ``repro.obs.hostprof`` *measures* host wall-time by design — that is
#: its product, clearly labelled host seconds, and it never writes into
#: the cycle ledger (D2 still applies to it in full). Everything else in
#: the tree must stay on simulated cycles.
_D1_EXEMPT = ("repro/obs/hostprof.py",)
_CLOCK_SPENDERS = frozenset({"charge", "fast_forward", "count"})
_HASH_ATTRS = frozenset({
    "sha1", "sha256", "sha384", "sha512", "md5", "blake2b", "blake2s",
})
_DICT_ITERATORS = frozenset({"items", "keys", "values"})

#: scheduler/pool shared-state attribute names bound by D7: collections
#: every core can observe, whose mutation order IS the deterministic
#: interleaving seeded fleet digests pin
_D7_SHARED = frozenset({
    "queue", "active", "cores", "finished", "counts", "slots",
})
#: in-place mutating methods on those collections
_D7_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "pop", "popleft", "remove", "discard", "clear", "update",
    "setdefault", "rotate",
})


def _d7_shared_target(node: ast.AST) -> str | None:
    """The shared-state attribute a node mutates, if any.

    Matches ``self.queue`` and friends anywhere in the attribute chain
    (``self.pool.slots.append`` mutates ``slots``).
    """
    chain = _attr_chain(node)
    if not chain:
        return None
    for part in chain.split(".")[1:]:        # skip the base name
        if part in _D7_SHARED:
            return part
    return None


def _peel_subscripts(node: ast.AST) -> ast.AST:
    """``self.cores[i]`` → the ``self.cores`` attribute node."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a concrete source location."""

    rule: str
    path: str            # normalized, "repro/..."-relative where possible
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} " \
               f"({RULES[self.rule]}): {self.message}"


def _attr_chain(node: ast.AST) -> str:
    """Dotted-name text of an Attribute/Name chain ('' if not one)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parent: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[child] = node
    return parent


def _in_on_cpu_scope(node: ast.AST, parents: dict) -> bool:
    """Is ``node`` lexically under a ``with ...on_cpu(...):``?"""
    cur = parents.get(node)
    while cur is not None:
        if isinstance(cur, ast.With):
            for item in cur.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call) and \
                        isinstance(expr.func, ast.Attribute) and \
                        expr.func.attr == "on_cpu":
                    return True
        cur = parents.get(cur)
    return False


def _under_sorted(node: ast.AST, parents: dict, stop: ast.AST) -> bool:
    """Is ``node`` inside a ``sorted(...)`` call, below ``stop``?"""
    cur = parents.get(node)
    while cur is not None and cur is not stop:
        if isinstance(cur, ast.Call) and isinstance(cur.func, ast.Name) \
                and cur.func.id == "sorted":
            return True
        cur = parents.get(cur)
    return False


def _check_d1(node: ast.Call, chain: str) -> str | None:
    if chain:
        head, _, tail = chain.partition(".")
        if head == "time" and tail in _WALL_CLOCK_TIME_ATTRS:
            return f"{chain}() reads the host wall clock"
        if tail.split(".")[-1] in _WALL_CLOCK_DATE_ATTRS and \
                "datetime" in chain.split("."):
            return f"{chain}() reads the host wall clock"
        if head == "random":
            if tail == "Random" and node.args:
                return None            # seeded Random(seed) is fine
            return f"{chain}() uses the process-global random state"
    if isinstance(node.func, ast.Attribute) and \
            node.func.attr == "default_rng" and not node.args:
        return "default_rng() without a seed is nondeterministic"
    return None


def _check_d3(node: ast.Call, chain: str, parents: dict) -> str | None:
    tail = chain.split(".")[-1] if chain else ""
    if tail not in _HASH_ATTRS:
        return None
    for arg in node.args:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Call):
                subchain = _attr_chain(sub.func)
                if isinstance(sub.func, ast.Attribute) and \
                        sub.func.attr in _DICT_ITERATORS and \
                        not _under_sorted(sub, parents, node):
                    return (f"hash preimage built from bare "
                            f".{sub.func.attr}() iteration — wrap in "
                            "sorted(...) or serialize canonically")
                if subchain.endswith("json.dumps") or subchain == "dumps":
                    kw = {k.arg for k in sub.keywords}
                    if "sort_keys" not in kw:
                        return ("hash preimage uses json.dumps without "
                                "sort_keys=True")
    return None


def lint_source(source: str, path: str) -> list[LintFinding]:
    """Lint one module's source text; ``path`` scopes D2/D5."""
    norm = path.replace("\\", "/")
    in_obs = "repro/obs/" in norm
    in_fleet = "repro/fleet/" in norm
    in_tcache = any(norm.endswith(suffix) for suffix in _D6_MODULES)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding("D4", norm, exc.lineno or 0,
                            f"unparseable module: {exc.msg}")]
    d1_exempt = any(norm.endswith(suffix) for suffix in _D1_EXEMPT)
    parents = _parents(tree)
    lines = source.splitlines()
    findings: list[LintFinding] = []

    # names that alias a wall-clock reader (``from time import
    # perf_counter [as pc]``) — bare calls to these are as much D1 as
    # the dotted ``time.perf_counter()`` form
    wall_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME_ATTRS:
                    wall_names.add(alias.asname or alias.name)

    def line_text(lineno: int) -> str:
        return lines[lineno - 1] if 0 < lineno <= len(lines) else ""

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            blanket = None
            if node.type is None:
                blanket = "bare except:"
            else:
                names = [node.type] if not isinstance(node.type, ast.Tuple) \
                    else list(node.type.elts)
                for n in names:
                    if isinstance(n, ast.Name) and \
                            n.id in ("Exception", "BaseException"):
                        blanket = f"except {n.id}"
            if blanket:
                findings.append(LintFinding(
                    "D4", norm, node.lineno,
                    f"{blanket} swallows simulator faults indiscriminately"
                    " — catch the specific error types"))
            continue
        if in_tcache and isinstance(node, ast.Attribute) and \
                node.attr in ("cycles", "clock"):
            findings.append(LintFinding(
                "D6", norm, node.lineno,
                f".{node.attr} read from the translation cache — superblock "
                "build/lookup is a host-speed plane and may not observe "
                "the cycle clock"))
            continue
        if in_fleet and isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                shared = _d7_shared_target(_peel_subscripts(target))
                if shared and _in_on_cpu_scope(node, parents) and \
                        "# commit-path" not in line_text(node.lineno):
                    findings.append(LintFinding(
                        "D7", norm, node.lineno,
                        f"shared scheduler state '{shared}' assigned "
                        "inside an on_cpu(...) scope — commit shared "
                        "state on the serial core-ordered path or mark "
                        "the line '# commit-path'"))
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        msg = _check_d1(node, chain)
        if msg is None and chain in wall_names:
            msg = f"{chain}() reads the host wall clock (bare import)"
        if msg and not d1_exempt:
            findings.append(LintFinding("D1", norm, node.lineno, msg))
        msg = _check_d3(node, chain, parents)
        if msg:
            findings.append(LintFinding("D3", norm, node.lineno, msg))
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if in_tcache and attr in _CLOCK_SPENDERS:
                findings.append(LintFinding(
                    "D6", norm, node.lineno,
                    f".{attr}() from the translation cache — charges out of "
                    "program order would skew the bit-exact ledger; leave "
                    "all charging to the burst executor"))
            if in_obs and attr in _CLOCK_SPENDERS:
                findings.append(LintFinding(
                    "D2", norm, node.lineno,
                    f".{attr}() from an obs module — observability must "
                    "be read-only on the clock"))
            if in_fleet and attr in _D7_MUTATORS:
                shared = _d7_shared_target(
                    _peel_subscripts(node.func.value))
                if shared and _in_on_cpu_scope(node, parents) and \
                        "# commit-path" not in line_text(node.lineno):
                    findings.append(LintFinding(
                        "D7", norm, node.lineno,
                        f".{attr}() mutates shared scheduler state "
                        f"'{shared}' inside an on_cpu(...) scope — "
                        "commit shared state on the serial core-ordered "
                        "path or mark the line '# commit-path'"))
            if in_fleet and attr == "charge" and \
                    not _in_on_cpu_scope(node, parents) and \
                    "# serial-section" not in line_text(node.lineno):
                findings.append(LintFinding(
                    "D5", norm, node.lineno,
                    ".charge() outside an on_cpu(...) scope — attribute "
                    "the cycles to a core or mark the line "
                    "'# serial-section'"))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _norm_rel(path: Path) -> str:
    """Path normalized to start at the ``repro`` package when possible."""
    parts = path.as_posix().split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return path.as_posix()


def lint_paths(paths: list, ratchet=None) -> tuple[list[LintFinding],
                                                   list[LintFinding]]:
    """Lint files/trees; returns ``(kept, waived)`` after the ratchet.

    ``paths`` may mix files and directories; directories are walked for
    ``*.py`` in sorted order so output ordering is deterministic.
    """
    from .ratchet import apply_ratchet

    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    findings: list[LintFinding] = []
    for f in files:
        findings.extend(lint_source(f.read_text(), _norm_rel(f)))
    if ratchet is None:
        return findings, []
    return apply_ratchet(findings, ratchet)
