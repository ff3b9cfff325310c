"""Host wall-clock attribution: where do real seconds go in the simulator?

Everything else in ``repro.obs`` measures *simulated* cycles and is
forbidden by the lint discipline from ever reading the host clock (rule
D1) or charging the simulated one (rule D2). This module is the one
deliberate, named exception to D1 — and the lint rules encode the
exemption for exactly this path (see ``repro/analysis/lint.py``,
``_D1_EXEMPT``): host-time attribution *is* its purpose, so
``time.perf_counter`` here is not a discipline violation but the product.
The D2 half still binds: the profiler never touches a
:class:`~repro.hw.cycles.CycleClock`, so arming it cannot move a single
simulated cycle and every pinned fleet digest stays byte-identical.

Why it exists: the simulated ledger says *what the modeled hardware paid*;
it says nothing about where the *host* burns wall-time running the model.
The translation-cache roadmap item is justified entirely by host time
(interpreter fetch/decode dominating), and the obs plane's own emit path
is the other known tax — neither is visible to any cycle-denominated
profile. :class:`HostProfiler` answers both with low-overhead scoped
counters: it patches a small, fixed table of simulator entry points
(:data:`SUBSYSTEMS` — interpreter fetch/decode, MMU walks, EMC gate
dispatch, guest syscalls, AEAD crypto, pool scrub, tracer emit) with
wrappers that attribute **self time** (own wall-time minus profiled
children) to a named subsystem, then renders a ranked table and a
collapsed-stack flamegraph.

Honest accounting rules:

* **no catch-all root** — the measurement window is explicit
  (:meth:`HostProfiler.start` / :meth:`stop`), so the reported coverage
  (attributed / window) is a real claim, not 100% by construction. The
  acceptance bar is ≥ 90% on the 16-request llama fleet.
* **self time only** — a parent scope is never credited for a child's
  seconds, so the table's shares sum to the coverage, not past it.
* **calibrated observer cost** — the wrapper's own per-entry cost is
  measured (:meth:`calibrate`) and reported next to the table, so a
  hot subsystem's share can be discounted for probe overhead instead of
  silently absorbing it.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter  # D1-exempt: host attribution is the product

#: label → (module, qualified attribute) patch table. Labels repeat when
#: several entry points belong to one subsystem. ``Class.method`` targets
#: a class attribute (classmethods handled), a bare name targets the
#: module attribute (patching the importing module's reference, so
#: already-imported call sites resolve the wrapper).
SUBSYSTEMS: tuple[tuple[str, str, str], ...] = (
    ("cpu:fetch-decode", "repro.hw.cpu", "Cpu.step"),
    ("cpu:superblock", "repro.hw.cpu", "Cpu._translated_burst"),
    ("cpu:run-loop", "repro.hw.cpu", "Cpu.run"),
    ("tcache:acquire", "repro.hw.translate", "TranslationCache.acquire"),
    ("tcache:build", "repro.hw.translate", "TranslationCache._build"),
    ("mmu:walk", "repro.hw.mmu", "Mmu.check"),
    ("mmu:walk", "repro.hw.mmu", "Mmu.check_run"),
    ("mmu:leaf-path", "repro.hw.paging", "AddressSpace.leaf_path"),
    ("mmu:fetch", "repro.hw.mmu", "Mmu.fetch"),
    ("mmu:read", "repro.hw.mmu", "Mmu.read"),
    ("mmu:write", "repro.hw.mmu", "Mmu.write"),
    ("emc:gate-dispatch", "repro.core.monitor", "EreborMonitor.charge_emc"),
    ("emc:gate-dispatch", "repro.core.monitor",
     "EreborMonitor.charge_emc_batch"),
    ("kernel:syscall", "repro.kernel.kernel", "GuestKernel.syscall"),
    ("kernel:page-fault", "repro.kernel.kernel",
     "GuestKernel.handle_page_fault"),
    ("crypto:seal", "repro.crypto.aead", "SealedSession.seal"),
    ("crypto:open", "repro.crypto.aead", "SealedSession.open"),
    ("fleet:boot", "repro.fleet.loadgen", "erebor_boot"),
    ("verify:dataflow", "repro.analysis.absint",
     "DataflowVerifier.verify_image"),
    ("bench:run", "repro.bench.runner", "WorkloadRunner.run"),
    ("fleet:template-capture", "repro.fleet.template",
     "SandboxTemplate.capture"),
    ("fleet:fork", "repro.fleet.template", "SandboxTemplate.fork"),
    ("pool:scrub", "repro.fleet.pool", "WarmPool.release"),
    ("fleet:drive", "repro.fleet.scheduler", "FleetScheduler.run"),
    ("obs:tracer-emit", "repro.obs.trace", "_Span.__exit__"),
    ("obs:tracer-emit", "repro.obs.trace", "Tracer.event"),
    ("obs:tracer-emit", "repro.obs.trace", "Tracer.audit"),
)


class HostProfiler:
    """Scoped host-time counters over the simulator's named subsystems."""

    def __init__(self, subsystems=SUBSYSTEMS):
        self.subsystems = tuple(subsystems)
        #: label → attributed self seconds
        self.totals: dict[str, float] = {}
        #: label → entry count
        self.calls: dict[str, int] = {}
        #: label-path tuple → self seconds (flamegraph input)
        self.folded: dict[tuple, float] = {}
        self._stack: list[list] = []   # frames: [label, path, child_s]
        self._paths: dict[tuple, tuple] = {}   # (parent_path, label) cache
        self._patched: list[tuple] = []        # (owner, name, original)
        self._active = False
        self._t_start: float | None = None
        self._t_stop: float | None = None
        self._entry_overhead_s = 0.0

    # -- scoped counters -------------------------------------------------- #

    def scope(self, label: str):
        """Manual scope for code the patch table does not cover."""
        return _Scope(self, label)

    def _push(self, label: str) -> float:
        stack = self._stack
        parent_path = stack[-1][1] if stack else ()
        key = (parent_path, label)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = parent_path + (label,)
        stack.append([label, path, 0.0])
        return perf_counter()

    def _pop(self, t0: float) -> None:
        dt = perf_counter() - t0
        label, path, child_s = self._stack.pop()
        self_s = dt - child_s
        self.totals[label] = self.totals.get(label, 0.0) + self_s
        self.calls[label] = self.calls.get(label, 0) + 1
        self.folded[path] = self.folded.get(path, 0.0) + self_s
        if self._stack:
            self._stack[-1][2] += dt

    def wrap(self, label: str, fn):
        """Wrap ``fn`` so each call attributes self-time to ``label``."""
        profiler = self

        def _hostprof_wrapper(*args, **kwargs):
            if not profiler._active:
                return fn(*args, **kwargs)
            t0 = profiler._push(label)
            try:
                return fn(*args, **kwargs)
            finally:
                profiler._pop(t0)

        _hostprof_wrapper.__name__ = getattr(fn, "__name__",
                                             "_hostprof_wrapper")
        _hostprof_wrapper.__qualname__ = getattr(fn, "__qualname__",
                                                 _hostprof_wrapper.__name__)
        _hostprof_wrapper.__doc__ = getattr(fn, "__doc__", None)
        _hostprof_wrapper.__wrapped__ = fn
        return _hostprof_wrapper

    # -- patching --------------------------------------------------------- #

    def attach(self) -> "HostProfiler":
        """Install wrappers for every :data:`SUBSYSTEMS` entry."""
        if self._patched:
            raise RuntimeError("HostProfiler already attached")
        for label, module_name, qualname in self.subsystems:
            module = importlib.import_module(module_name)
            *owner_parts, name = qualname.split(".")
            owner = module
            for part in owner_parts:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[name]
            else:
                original = getattr(owner, name)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(label, original.__func__))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(self.wrap(label, original.__func__))
            else:
                wrapped = self.wrap(label, original)
            setattr(owner, name, wrapped)
            self._patched.append((owner, name, original))
        return self

    def detach(self) -> None:
        """Restore every patched entry point (reverse order)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "HostProfiler":
        self.attach()
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        self.detach()
        return False

    # -- measurement window ----------------------------------------------- #

    def start(self) -> None:
        """Open the measurement window (coverage denominator)."""
        self._active = True
        self._t_stop = None
        self._t_start = perf_counter()

    def stop(self) -> float:
        """Close the window; returns its length in seconds."""
        self._t_stop = perf_counter()
        self._active = False
        return self.window_s

    @property
    def window_s(self) -> float:
        if self._t_start is None:
            return 0.0
        end = self._t_stop if self._t_stop is not None else perf_counter()
        return end - self._t_start

    # -- calibration ------------------------------------------------------ #

    def calibrate(self, iterations: int = 20_000) -> float:
        """Measure the wrapper's own per-entry cost (seconds/entry).

        Times ``iterations`` profiled no-op calls against bare ones and
        stores the difference so :meth:`report` can state how much of a
        hot subsystem's share is probe, not product.
        """
        def noop():
            return None

        wrapped = self.wrap("hostprof:calibration", noop)
        was_active = self._active
        self._active = True
        t0 = perf_counter()
        for _ in range(iterations):
            wrapped()
        t1 = perf_counter()
        for _ in range(iterations):
            noop()
        t2 = perf_counter()
        self._active = was_active
        # undo the calibration's own entries
        self.totals.pop("hostprof:calibration", None)
        self.calls.pop("hostprof:calibration", None)
        self.folded.pop(("hostprof:calibration",), None)
        self._entry_overhead_s = max((t1 - t0) - (t2 - t1), 0.0) / iterations
        return self._entry_overhead_s

    # -- reporting -------------------------------------------------------- #

    def attributed_s(self) -> float:
        return sum(self.totals.values())

    def coverage(self) -> float:
        window = self.window_s
        return (self.attributed_s() / window) if window > 0 else 0.0

    def report(self) -> dict:
        """Ranked attribution report (JSON-able, deterministically ordered
        by share desc then label)."""
        window = self.window_s
        attributed = self.attributed_s()
        entries = sum(self.calls.values())
        if not self._entry_overhead_s and entries:
            self.calibrate()
        ranked = sorted(self.totals.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return {
            "window_s": round(window, 6),
            "attributed_s": round(attributed, 6),
            "unattributed_s": round(max(window - attributed, 0.0), 6),
            "coverage": round(attributed / window, 6) if window else 0.0,
            "entries": entries,
            "entry_overhead_us": round(self._entry_overhead_s * 1e6, 4),
            "probe_overhead_s": round(self._entry_overhead_s * entries, 6),
            "subsystems": [
                {
                    "name": label,
                    "self_s": round(self_s, 6),
                    "share": round(self_s / window, 6) if window else 0.0,
                    "calls": self.calls.get(label, 0),
                }
                for label, self_s in ranked
            ],
        }

    def render_table(self, top: int = 10) -> str:
        """The ranked host-time table (``--export report`` output)."""
        report = self.report()
        lines = [
            "host-time attribution "
            f"(window {report['window_s']:.3f}s, "
            f"{report['coverage'] * 100:.1f}% attributed, "
            f"probe ~{report['entry_overhead_us']:.2f}us/entry)",
            f"{'rank':>4}  {'subsystem':<24} {'self_s':>9} "
            f"{'share':>7} {'calls':>10}",
        ]
        for rank, row in enumerate(report["subsystems"][:top], start=1):
            lines.append(
                f"{rank:>4}  {row['name']:<24} {row['self_s']:>9.4f} "
                f"{row['share'] * 100:>6.1f}% {row['calls']:>10,}")
        other = report["subsystems"][top:]
        if other:
            self_s = sum(r["self_s"] for r in other)
            share = sum(r["share"] for r in other)
            calls = sum(r["calls"] for r in other)
            lines.append(f"{'':>4}  {'(other)':<24} {self_s:>9.4f} "
                         f"{share * 100:>6.1f}% {calls:>10,}")
        lines.append(
            f"{'':>4}  {'(unattributed)':<24} "
            f"{report['unattributed_s']:>9.4f} "
            f"{(1 - report['coverage']) * 100:>6.1f}% {'':>10}")
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph lines (``a;b;c <microseconds>``)."""
        lines = []
        for path, self_s in sorted(self.folded.items()):
            us = int(round(self_s * 1e6))
            if us > 0:
                lines.append(f"{';'.join(path)} {us}")
        return "\n".join(lines)

    def write_report(self, path: str | Path) -> dict:
        payload = self.report()
        Path(path).write_text(json.dumps(payload, indent=2))
        return payload

    def __repr__(self) -> str:
        return (f"HostProfiler({len(self.totals)} subsystems, "
                f"{sum(self.calls.values())} entries, "
                f"window {self.window_s:.3f}s)")


class _Scope:
    """Manual profiler scope (same self-time rules as patched entries)."""

    __slots__ = ("_profiler", "_label", "_t0")

    def __init__(self, profiler: HostProfiler, label: str):
        self._profiler = profiler
        self._label = label

    def __enter__(self) -> "_Scope":
        self._t0 = self._profiler._push(self._label) \
            if self._profiler._active else None
        return self

    def __exit__(self, *exc) -> bool:
        if self._t0 is not None:
            self._profiler._pop(self._t0)
        return False


def profile_fleet(run, *, subsystems=SUBSYSTEMS):
    """Run ``run()`` under an attached profiler; returns (result, profiler).

    Convenience for the benchmark and the fleet CLI: patches the
    subsystem table, opens the window exactly around the call, and
    detaches before returning — the interpreter is back to its
    unpatched self when this returns.
    """
    profiler = HostProfiler(subsystems)
    with profiler:
        result = run()
    profiler.calibrate()
    return result, profiler
