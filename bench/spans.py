"""In-memory span recorder wrapped around the public functions of bandgroup.

The recorder replaces functions in the namespaces of the already imported
`bandgroup` modules with thin wrappers; the program's own files are left
as they are.  Each call records one span (name, start, end, parent) into
flat arrays, so a run of a million calls stays a few tens of megabytes.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import bisect
import builtins
import functools
import json
import sys
import time
from array import array
from collections import Counter

# (module, function, span name) for every function that gets a span.
SPAN_SITES = [
    ("bandgroup.cli", "main", "cli.main"),
    ("bandgroup.cli", "build_parser", "cli.load"),
    ("bandgroup.coxeter", "matrix_from_json", "cli.load"),
    ("bandgroup.coxeter", "partition_from_json", "cli.load"),
    ("bandgroup.braid", "parse_braid_word", "cli.load"),
    ("bandgroup.report", "render_reports_json", "cli.render"),
    ("bandgroup.braid", "braid_equal", "braid.equal"),
    ("bandgroup.braid", "permutation_image", "braid.perm"),
    ("bandgroup.braid", "free_image", "braid.free_image"),
    ("bandgroup.present", "expand_letter_word", "present.expand"),
    ("bandgroup.present", "relations_thm2", "present.relations"),
    ("bandgroup.present", "relations_combing", "present.relations"),
    ("bandgroup.present", "verify_relations", "present.verify"),
    ("bandgroup.present", "coset_table_check", "present.coset"),
    ("bandgroup.raag", "injectivity_scan", "raag.scan"),
    ("bandgroup.raag", "normalize", "raag.normalize"),
    ("bandgroup.raag", "expression_to_braid", "raag.to_braid"),
    ("bandgroup.coxword", "act_band_on_cox", "coxword.act"),
]


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, key):
        return getattr(self._target, key)


class Tracer:
    """Records spans and counters while installed; see `install`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.counts: Counter = Counter()
        self.peak_image_letters = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, on_result=None):
        """`fn` recording a span called `name` per call, then `on_result(result)`."""
        nid = self._name_id(name)
        start, end, names, parent, stack = (
            self.start, self.end, self.name, self.parent, self._stack
        )
        counts = self.counts
        calls_key = name + ".calls"
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            counts[calls_key] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_free_image(self, word) -> None:
        self.counts["braid.free_letters"] += len(word)
        self.peak_image_letters = max(self.peak_image_letters, len(word))

    def _on_expand(self, word) -> None:
        self.counts["present.expand_letters"] += len(word)

    def install(self) -> None:
        """Wrap every site in SPAN_SITES, in every bandgroup namespace.

        A function imported with `from .x import f` lives under its own
        name in several modules; each reference that is the original
        object is replaced, so calls through any module are recorded.
        """
        hooks = {
            "braid.free_image": self._on_free_image,
            "present.expand": self._on_expand,
        }
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "bandgroup"]
        for mod_name, attr, span in SPAN_SITES:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(original, span, hooks.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        # The CLI renders `eq` and `perm` answers with json.dumps and print;
        # both are reached through names in the cli module's namespace.
        cli = sys.modules["bandgroup.cli"]
        cli.print = self._wrap(builtins.print, "cli.render")
        cli.json = _Proxy(json, dumps=self._wrap(json.dumps, "cli.render"))

        cox_word = sys.modules["bandgroup.coxword"].CoxWord
        validate = cox_word.__post_init__
        counts = self.counts

        def counted_post_init(word):
            counts["coxword.words_built"] += 1
            validate(word)

        cox_word.__post_init__ = counted_post_init

    def mark(self) -> int:
        """Index of the next span, for cutting the record into rounds."""
        return len(self.start)

    def self_times(self, lo: int, hi: int, pauses=()) -> dict[str, float]:
        """Self time summed per span name over spans lo..hi-1.

        `pauses` are (start, end, ...) intervals in which the process ran
        the benchmark's own code inside a span, such as the speed
        sampler's ticks.  Each is taken out of the innermost span it
        interrupted: the last span to start before it, or the nearest
        ancestor of that span still open at its end.
        """
        start, end, parent = self.start, self.end, self.parent
        own = [end[idx] - start[idx] for idx in range(lo, hi)]
        for idx in range(lo, hi):
            if parent[idx] >= lo:
                own[parent[idx] - lo] -= end[idx] - start[idx]
        for a, b, *_ in pauses:
            idx = bisect.bisect_right(start, a, lo, hi) - 1
            while idx >= lo and end[idx] < b:
                idx = parent[idx]
            if idx >= lo:
                own[idx - lo] -= b - a
        totals = [0.0] * len(self.names)
        for idx in range(lo, hi):
            totals[self.name[idx]] += own[idx - lo]
        return {name: totals[nid] for nid, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as a tab-separated line: id, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for idx in range(len(self.start)):
                fh.write(
                    f"{idx}\t{names[self.name[idx]]}\t{self.start[idx]!r}\t"
                    f"{self.end[idx]!r}\t{self.parent[idx]}\n"
                )
