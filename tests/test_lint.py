"""Tests for repro-lint: the AST-based invariant analyzer.

Each rule gets positive fixtures (the violation is found), negative
fixtures (sanctioned idioms stay clean), plus suppression, selection
and CLI exit-code coverage -- and a self-check that the repository's
own ``src/`` tree is clean under every rule, which is what the CI gate
runs.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_source
from repro.lint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.lint.framework import PARSE_ERROR_CODE, LintResult
from repro.lint.rules import make_rules
from repro.lint.rules.asynchygiene import AsyncHygieneRule
from repro.lint.rules.capability import CapabilityGuardRule
from repro.lint.rules.counters import CounterDisciplineRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.exceptions import ExceptionHygieneRule
from repro.lint.rules.forksafety import ForkSafetyRule
from repro.lint.rules.fsync import FsyncDisciplineRule
from repro.lint.rules.resources import ResourceLifecycleRule
from repro.lint.rules.scale import ScaleHygieneRule
from repro.lint.rules.seam import SeamIsolationRule

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(source, rule, module="repro.core.fixture"):
    """Lint one dedented source string with one rule."""
    return lint_source(textwrap.dedent(source), [rule], module=module)


def codes(findings):
    return [f.code for f in findings]


class TestSeamIsolation:
    def test_plain_import_is_flagged(self):
        findings = run("import repro.storage.buffer\n", SeamIsolationRule())
        assert codes(findings) == ["RPL001"]
        assert "repro.storage.buffer" in findings[0].message

    def test_aliased_import_is_flagged(self):
        findings = run("import repro.storage.page as pg\n", SeamIsolationRule())
        assert codes(findings) == ["RPL001"]

    def test_from_import_is_flagged(self):
        source = "from repro.storage.successor_store import SuccessorListStore\n"
        assert codes(run(source, SeamIsolationRule())) == ["RPL001"]

    def test_from_package_import_module_is_flagged(self):
        # The form the old grep guard could not see.
        source = "from repro.storage import buffer\n"
        assert codes(run(source, SeamIsolationRule())) == ["RPL001"]

    def test_dynamic_import_string_is_flagged(self):
        source = """\
            import importlib
            mod = importlib.import_module("repro.storage.relation")
        """
        assert codes(run(source, SeamIsolationRule())) == ["RPL001"]

    def test_engine_seam_import_is_allowed(self):
        source = "from repro.storage.engine import StorageEngine, make_engine\n"
        assert run(source, SeamIsolationRule()) == []

    def test_type_checking_import_is_allowed(self):
        source = """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.storage.buffer import BufferPool
        """
        assert run(source, SeamIsolationRule()) == []

    def test_storage_package_itself_is_exempt(self):
        source = "from repro.storage.page import PageId\n"
        findings = lint_source(
            source, [SeamIsolationRule()], module="repro.storage.paged"
        )
        assert findings == []


class TestDeterminism:
    def test_wall_clock_read_is_flagged(self):
        source = """\
            import time
            stamp = time.time()
        """
        findings = run(source, DeterminismRule())
        assert codes(findings) == ["RPL002"]
        assert "wall-clock" in findings[0].message

    def test_cpu_and_monotonic_timers_are_allowed(self):
        source = """\
            import time
            a = time.process_time()
            b = time.perf_counter()
        """
        assert run(source, DeterminismRule()) == []

    def test_unseeded_module_random_is_flagged(self):
        source = """\
            import random
            x = random.random()
        """
        assert codes(run(source, DeterminismRule())) == ["RPL002"]

    def test_seeded_random_instance_is_allowed(self):
        source = """\
            import random
            rng = random.Random(7)
            x = rng.random()
        """
        assert run(source, DeterminismRule()) == []

    def test_urandom_is_flagged(self):
        source = """\
            import os
            x = os.urandom(8)
        """
        assert codes(run(source, DeterminismRule())) == ["RPL002"]

    def test_for_over_set_is_flagged(self):
        source = """\
            def f(pages):
                pinned = set(pages)
                for page in pinned:
                    print(page)
        """
        findings = run(source, DeterminismRule())
        assert codes(findings) == ["RPL002"]
        assert "iterating a set" in findings[0].message

    def test_list_laundering_keeps_the_flag(self):
        source = """\
            def f(pages):
                pinned = set(pages)
                for page in list(pinned):
                    print(page)
        """
        assert codes(run(source, DeterminismRule())) == ["RPL002"]

    def test_sorted_set_is_allowed(self):
        source = """\
            def f(pages):
                pinned = set(pages)
                for page in sorted(pinned):
                    print(page)
        """
        assert run(source, DeterminismRule()) == []

    def test_comprehension_feeding_reducer_is_allowed(self):
        source = """\
            def f(rows):
                seen = {r * 2 for r in rows}
                return sum(x + 1 for x in seen)
        """
        assert run(source, DeterminismRule()) == []

    def test_insertion_ordered_dict_is_allowed(self):
        source = """\
            def f(pages):
                pinned = {}
                for page in pages:
                    pinned[page] = None
                for page in pinned:
                    print(page)
        """
        assert run(source, DeterminismRule()) == []

    def test_out_of_scope_module_is_ignored(self):
        source = """\
            import time
            stamp = time.time()
        """
        findings = lint_source(
            textwrap.dedent(source), [DeterminismRule()], module="repro.chaos.inject"
        )
        assert findings == []


class TestCounterDiscipline:
    def test_augmented_write_is_flagged(self):
        source = "metrics.tuples_generated += 1\n"
        findings = run(source, CounterDisciplineRule())
        assert codes(findings) == ["RPL003"]
        assert "tuples_generated" in findings[0].message

    def test_absolute_write_is_flagged(self):
        source = "metrics.cpu_seconds = 1.5\n"
        assert codes(run(source, CounterDisciplineRule())) == ["RPL003"]

    def test_self_metrics_receiver_is_flagged(self):
        source = """\
            class A:
                def f(self):
                    self.metrics.duplicates += 2
        """
        assert codes(run(source, CounterDisciplineRule())) == ["RPL003"]

    def test_fold_api_is_allowed(self):
        source = """\
            def f(metrics):
                metrics.fold(tuples_generated=3, duplicates=1)
                metrics.set_totals(cpu_seconds=0.5)
                metrics.count_union(4, 2)
        """
        assert run(source, CounterDisciplineRule()) == []

    def test_io_ledger_is_exempt(self):
        source = "metrics.io.phase = 1\n"
        assert run(source, CounterDisciplineRule()) == []

    def test_plain_locals_are_allowed(self):
        source = """\
            def f():
                tuples_generated = 0
                tuples_generated += 1
        """
        assert run(source, CounterDisciplineRule()) == []

    def test_metrics_package_itself_is_exempt(self):
        findings = lint_source(
            "metrics.tuples_generated += 1\n",
            [CounterDisciplineRule()],
            module="repro.metrics.counters",
        )
        assert findings == []


class TestCapabilityGuards:
    def test_unguarded_hook_is_flagged(self):
        source = """\
            def f(engine):
                engine.touch_page(1, 2)
        """
        findings = run(source, CapabilityGuardRule())
        assert codes(findings) == ["RPL004"]
        assert "touch_page()" in findings[0].message
        assert "engine.paged" in findings[0].message

    def test_direct_supports_guard_is_allowed(self):
        source = """\
            def f(ctx):
                if ctx.engine.paged:
                    ctx.engine.touch_page(1, 2)
                ctx.engine.probe_arcs_unclustered(3, 4) if ctx.engine.paged else None
        """
        assert run(source, CapabilityGuardRule()) == []

    def test_flag_variable_guard_is_allowed(self):
        source = """\
            def f(engine):
                charged = engine.paged
                if charged:
                    engine.create_page(1, 2)
        """
        assert run(source, CapabilityGuardRule()) == []

    def test_flag_guard_traced_into_closure(self):
        source = """\
            def f(engine):
                charged = engine.paged

                def touch(row):
                    if not charged:
                        return
                    engine.touch_page(1, row)
        """
        assert run(source, CapabilityGuardRule()) == []

    def test_early_exit_guard_is_allowed(self):
        source = """\
            def f(engine):
                if not engine.paged:
                    return
                engine.flush_output([])
        """
        assert run(source, CapabilityGuardRule()) == []

    def test_pinning_hook_names_its_capability(self):
        source = """\
            def f(engine):
                engine.unpin_page(1)
        """
        findings = run(source, CapabilityGuardRule())
        assert codes(findings) == ["RPL004"]
        assert "unpin_page()" in findings[0].message

    def test_paged_on_another_receiver_is_no_guard(self):
        source = """\
            def f(engine, config):
                if config.paged:
                    engine.pin_page(1)
                flag = config.paged
                if not flag:
                    return
                engine.unpin_page(1)
        """
        findings = run(source, CapabilityGuardRule())
        assert codes(findings) == ["RPL004", "RPL004"]

    def test_guards_of_the_old_spelling_no_longer_count(self):
        source = """\
            def f(engine):
                if engine.supports(CAP_PAGE_COSTS):
                    engine.touch_page(1, 2)
                engine.require(CAP_PINNING)
                engine.pin_page(1)
        """
        findings = run(source, CapabilityGuardRule())
        assert codes(findings) == ["RPL004", "RPL004"]

    def test_guard_after_the_call_does_not_dominate_it(self):
        source = """\
            def f(engine):
                engine.flush_output([])
                if not engine.paged:
                    return
        """
        assert codes(run(source, CapabilityGuardRule())) == ["RPL004"]

    def test_storage_package_itself_is_exempt(self):
        findings = lint_source(
            "def f(engine):\n    engine.touch_page(1, 2)\n",
            [CapabilityGuardRule()],
            module="repro.storage.paged",
        )
        assert findings == []


class TestExceptionHygiene:
    def test_bare_except_is_flagged_everywhere(self):
        source = """\
            try:
                f()
            except:
                pass
        """
        findings = lint_source(
            textwrap.dedent(source), [ExceptionHygieneRule()], module="anywhere"
        )
        assert codes(findings) == ["RPL005"]
        assert "bare except" in findings[0].message

    def test_swallowed_broad_except_on_chaos_path_is_flagged(self):
        source = """\
            try:
                f()
            except Exception:
                pass
        """
        findings = lint_source(
            textwrap.dedent(source), [ExceptionHygieneRule()],
            module="repro.chaos.inject",
        )
        assert codes(findings) == ["RPL005"]

    def test_reraising_handler_is_allowed(self):
        source = """\
            try:
                f()
            except Exception:
                raise
        """
        findings = lint_source(
            textwrap.dedent(source), [ExceptionHygieneRule()],
            module="repro.chaos.inject",
        )
        assert findings == []

    def test_structured_unit_error_is_allowed(self):
        source = """\
            def g(record_failure):
                try:
                    f()
                except Exception as exc:
                    record_failure(exc)
        """
        findings = lint_source(
            textwrap.dedent(source), [ExceptionHygieneRule()],
            module="repro.experiments.parallel",
        )
        assert findings == []

    def test_narrow_except_is_allowed(self):
        source = """\
            try:
                f()
            except ValueError:
                pass
        """
        findings = lint_source(
            textwrap.dedent(source), [ExceptionHygieneRule()],
            module="repro.chaos.inject",
        )
        assert findings == []

    def test_broad_except_outside_chaos_scope_is_allowed(self):
        source = """\
            try:
                f()
            except Exception:
                pass
        """
        findings = lint_source(
            textwrap.dedent(source), [ExceptionHygieneRule()],
            module="repro.report.tables",
        )
        assert findings == []


class TestFsyncDiscipline:
    def test_unflushed_write_is_flagged(self):
        source = """\
            def append(fh, line):
                fh.write(line)
        """
        findings = lint_source(
            textwrap.dedent(source), [FsyncDisciplineRule()],
            module="repro.chaos.checkpoint",
        )
        assert codes(findings) == ["RPL006"]
        assert "flush()" in findings[0].message
        assert "os.fsync()" in findings[0].message

    def test_flush_without_fsync_still_flagged(self):
        source = """\
            def append(fh, line):
                fh.write(line)
                fh.flush()
        """
        findings = lint_source(
            textwrap.dedent(source), [FsyncDisciplineRule()],
            module="repro.obs.sink",
        )
        assert codes(findings) == ["RPL006"]
        assert "os.fsync()" in findings[0].message

    def test_flush_and_fsync_is_clean(self):
        source = """\
            import os

            def append(fh, line):
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
        """
        findings = lint_source(
            textwrap.dedent(source), [FsyncDisciplineRule()],
            module="repro.chaos.checkpoint",
        )
        assert findings == []

    def test_non_writing_function_is_out_of_scope(self):
        source = """\
            def read_back(fh):
                return fh.read()
        """
        findings = lint_source(
            textwrap.dedent(source), [FsyncDisciplineRule()],
            module="repro.chaos.checkpoint",
        )
        assert findings == []

    def test_other_modules_are_out_of_scope(self):
        source = """\
            def append(fh, line):
                fh.write(line)
        """
        findings = lint_source(
            textwrap.dedent(source), [FsyncDisciplineRule()],
            module="repro.report.export",
        )
        assert findings == []

    def test_delegating_to_a_durable_helper_is_clean(self):
        # The batched-sink shape: the writer funnels durability through
        # one same-module helper that owns the flush+fsync pair.
        source = """\
            import os

            def append(fh, line):
                fh.write(line)
                _make_durable(fh)

            def _make_durable(fh):
                fh.flush()
                os.fsync(fh.fileno())
        """
        findings = lint_source(
            textwrap.dedent(source), [FsyncDisciplineRule()],
            module="repro.obs.sink",
        )
        assert findings == []

    def test_delegating_to_an_undurable_helper_is_flagged(self):
        source = """\
            def append(fh, line):
                fh.write(line)
                _make_durable(fh)

            def _make_durable(fh):
                fh.flush()
        """
        findings = lint_source(
            textwrap.dedent(source), [FsyncDisciplineRule()],
            module="repro.obs.sink",
        )
        assert codes(findings) == ["RPL006"]


class TestScaleHygiene:
    def test_setdefault_adjacency_build_is_flagged(self):
        source = """\
            for src, dst in graph.arcs():
                adjacency.setdefault(src, []).append(dst)
        """
        findings = run(source, ScaleHygieneRule())
        assert codes(findings) == ["RPL007"]
        assert "graph_from_columns" in findings[0].message

    def test_subscript_append_over_nodes_is_flagged(self):
        source = """\
            for i in range(graph.num_nodes):
                rows[i].append(i + 1)
        """
        assert codes(run(source, ScaleHygieneRule())) == ["RPL007"]

    def test_container_per_node_is_flagged(self):
        source = """\
            for node in graph.nodes():
                children[node] = []
        """
        assert codes(run(source, ScaleHygieneRule())) == ["RPL007"]

    def test_arcs_named_iterable_is_flagged(self):
        source = """\
            for src, dst in arcs:
                preds.setdefault(dst, set()).add(src)
        """
        assert codes(run(source, ScaleHygieneRule())) == ["RPL007"]

    def test_bounded_iterable_stays_clean(self):
        # The chains.py idiom: keyed accumulation over a *derived*
        # order, not a whole-graph sweep.
        source = """\
            for node in order:
                predecessors.setdefault(node, []).append(node)
        """
        assert run(source, ScaleHygieneRule()) == []

    def test_flat_column_accumulation_stays_clean(self):
        # The sanctioned fix: flat arc columns, no per-node containers.
        source = """\
            for src, dst in graph.arcs():
                srcs.append(src)
                dsts.append(dst)
        """
        assert run(source, ScaleHygieneRule()) == []

    def test_scalar_per_node_stays_clean(self):
        source = """\
            for node in graph.nodes():
                level[node] = 0
        """
        assert run(source, ScaleHygieneRule()) == []

    def test_other_modules_are_out_of_scope(self):
        source = """\
            for src, dst in graph.arcs():
                adjacency.setdefault(src, []).append(dst)
        """
        findings = lint_source(
            textwrap.dedent(source), [ScaleHygieneRule()],
            module="repro.report.export",
        )
        assert findings == []


class TestResourceLifecycle:
    def test_pin_without_unpin_is_flagged(self):
        source = """\
            def scan(engine, page):
                engine.pin_page(page)
                return engine.read(page)
        """
        findings = run(source, ResourceLifecycleRule())
        assert codes(findings) == ["RPL008"]
        assert "unreleased" in findings[0].message

    def test_exception_path_leak_is_flagged(self):
        # The flow-sensitive shape the PR-5 syntactic rules cannot see:
        # a pin matched by an unpin, but only on the normal path.
        source = """\
            def sweep(engine, pages):
                for page in pages:
                    engine.pin_page(page)
                process(pages)
                for page in pages:
                    engine.unpin_page(page)
        """
        findings = run(source, ResourceLifecycleRule())
        assert codes(findings) == ["RPL008"]
        assert "exception paths" in findings[0].message

    def test_early_return_leak_is_flagged(self):
        source = """\
            def probe(engine, page):
                engine.pin_page(page)
                if cached(page):
                    return fast(page)
                engine.unpin_page(page)
                return slow(page)
        """
        findings = run(source, ResourceLifecycleRule())
        assert codes(findings) == ["RPL008"]
        assert "some normal path" in findings[0].message

    def test_release_in_finally_is_clean(self):
        # The pin loop sits inside the try: an exception during the
        # second pin still releases the first via the finally sweep.
        source = """\
            def sweep(engine, pages):
                try:
                    for page in pages:
                        engine.pin_page(page)
                    process(pages)
                finally:
                    for page in pages:
                        engine.unpin_page(page)
        """
        assert run(source, ResourceLifecycleRule()) == []

    def test_unpin_all_counts_as_a_release(self):
        source = """\
            def sweep(engine, pages):
                try:
                    for page in pages:
                        engine.pin_page(page)
                    process(pages)
                finally:
                    engine.unpin_all()
        """
        assert run(source, ResourceLifecycleRule()) == []

    def test_pin_loop_outside_the_try_still_leaks(self):
        # A pin sweep ahead of the try: a failure mid-sweep escapes
        # before the finally protection begins.
        source = """\
            def sweep(engine, pages):
                for page in pages:
                    engine.pin_page(page)
                try:
                    process(pages)
                finally:
                    engine.unpin_all()
        """
        findings = run(source, ResourceLifecycleRule())
        assert codes(findings) == ["RPL008"]
        assert "exception paths" in findings[0].message

    def test_open_handle_not_closed_is_flagged(self):
        source = """\
            def count_rows(path):
                fh = open(path)
                total = 0
                for _line in fh:
                    total += 1
                return total
        """
        findings = run(source, ResourceLifecycleRule())
        assert codes(findings) == ["RPL008"]
        assert "'fh'" in findings[0].message

    def test_with_managed_handle_is_clean(self):
        source = """\
            def count_rows(path):
                with open(path) as fh:
                    return sum(1 for _ in fh)
        """
        assert run(source, ResourceLifecycleRule()) == []

    def test_close_in_finally_is_clean(self):
        source = """\
            def count_rows(path):
                fh = open(path)
                try:
                    return sum(1 for _ in fh)
                finally:
                    fh.close()
        """
        assert run(source, ResourceLifecycleRule()) == []

    def test_handle_returned_to_the_caller_is_clean(self):
        # Ownership transfer: the caller is now responsible.
        source = """\
            def open_log(path):
                fh = open(path)
                return fh
        """
        assert run(source, ResourceLifecycleRule()) == []

    def test_suppression_at_the_acquire_site(self):
        source = """\
            def scan(engine, page):
                engine.pin_page(page)  # repro-lint: disable=RPL008
                return engine.read(page)
        """
        assert run(source, ResourceLifecycleRule()) == []


def run_async(source, module="repro.serve.fixture"):
    return lint_source(
        textwrap.dedent(source), [AsyncHygieneRule()], module=module
    )


class TestAsyncHygiene:
    def test_blocking_sleep_in_async_def_is_flagged(self):
        source = """\
            import time

            async def handler(request):
                time.sleep(0.1)
                return request
        """
        findings = run_async(source)
        assert codes(findings) == ["RPL009"]
        assert "time.sleep" in findings[0].message

    def test_engine_run_in_async_def_is_flagged(self):
        source = """\
            async def handler(engine, spec):
                return engine.run(spec)
        """
        findings = run_async(source)
        assert codes(findings) == ["RPL009"]
        assert ".run()" in findings[0].message

    def test_executor_wrapped_blocking_call_is_clean(self):
        source = """\
            import time

            async def handler(loop):
                return await loop.run_in_executor(None, time.sleep, 0.1)
        """
        assert run_async(source) == []

    def test_never_awaited_coroutine_is_flagged(self):
        source = """\
            async def work():
                return 1

            async def handler():
                work()
        """
        findings = run_async(source)
        assert codes(findings) == ["RPL009"]
        assert "never awaited" in findings[0].message

    def test_discarded_create_task_is_flagged(self):
        source = """\
            import asyncio

            async def work():
                return 1

            async def handler():
                asyncio.create_task(work())
        """
        findings = run_async(source)
        assert codes(findings) == ["RPL009"]
        assert "discarded" in findings[0].message

    def test_task_awaited_on_one_path_only_is_flagged(self):
        # Flow-sensitive: the await exists but not on every path.
        source = """\
            import asyncio

            async def work():
                return 1

            async def handler(fast):
                task = asyncio.create_task(work())
                if fast:
                    await task
        """
        findings = run_async(source)
        assert codes(findings) == ["RPL009"]
        assert "some path" in findings[0].message

    def test_awaited_task_is_clean(self):
        source = """\
            import asyncio

            async def work():
                return 1

            async def handler():
                task = asyncio.create_task(work())
                return await task
        """
        assert run_async(source) == []

    def test_done_callback_counts_as_retrieval(self):
        source = """\
            import asyncio

            async def work():
                return 1

            async def handler(on_done):
                task = asyncio.create_task(work())
                task.add_done_callback(on_done)
        """
        assert run_async(source) == []

    def test_sync_code_is_out_of_scope(self):
        source = """\
            import time

            def handler(request):
                time.sleep(0.1)
                return request
        """
        assert run_async(source) == []

    def test_other_modules_are_out_of_scope(self):
        source = """\
            import time

            async def handler(request):
                time.sleep(0.1)
        """
        assert run_async(source, module="repro.report.tables") == []

    def test_suppression(self):
        source = """\
            import time

            async def handler(request):
                time.sleep(0.1)  # repro-lint: disable=RPL009
        """
        assert run_async(source) == []


def run_fork(source, module="repro.experiments.parallel"):
    return lint_source(
        textwrap.dedent(source), [ForkSafetyRule()], module=module
    )


class TestForkSafety:
    def test_lambda_closing_over_engine_is_flagged(self):
        source = """\
            def launch(pool, jobs):
                engine = ExperimentEngine()
                for job in jobs:
                    pool.submit(lambda: engine.run(job))
        """
        findings = run_fork(source)
        assert codes(findings) == ["RPL010"]
        assert "'engine'" in findings[0].message

    def test_live_handle_argument_is_flagged(self):
        source = """\
            def launch(pool, path):
                fh = open(path)
                pool.submit(parse, fh)
        """
        findings = run_fork(source)
        assert codes(findings) == ["RPL010"]
        assert "live resource" in findings[0].message

    def test_plain_data_submission_is_clean(self):
        source = """\
            def launch(pool, jobs):
                for job in jobs:
                    pool.submit(run_job, job)
        """
        assert run_fork(source) == []

    def test_unreset_module_state_read_by_worker_is_flagged(self):
        source = """\
            CACHE = {}

            def worker(job):
                return CACHE.get(job)

            def launch(pool, jobs):
                for job in jobs:
                    pool.submit(worker, job)
        """
        findings = run_fork(source)
        assert codes(findings) == ["RPL010"]
        assert "'CACHE'" in findings[0].message

    def test_initializer_reset_hook_is_clean(self):
        source = """\
            from concurrent.futures import ProcessPoolExecutor

            CACHE = {}

            def _reset_worker_state():
                CACHE.clear()

            def worker(job):
                return CACHE.get(job)

            def launch(jobs):
                with ProcessPoolExecutor(initializer=_reset_worker_state) as pool:
                    for job in jobs:
                        pool.submit(worker, job)
        """
        assert run_fork(source) == []

    def test_other_modules_are_out_of_scope(self):
        source = """\
            def launch(pool, jobs):
                engine = ExperimentEngine()
                pool.submit(lambda: engine.run(jobs))
        """
        assert run_fork(source, module="repro.core.fixture") == []

    def test_suppression(self):
        source = """\
            def launch(pool, jobs):
                engine = ExperimentEngine()
                pool.submit(lambda: engine.run(jobs))  # repro-lint: disable=RPL010
        """
        assert run_fork(source) == []


class TestSuppression:
    def test_inline_disable_by_code(self):
        source = "metrics.duplicates += 1  # repro-lint: disable=RPL003\n"
        stats = LintResult()
        findings = lint_source(
            source, [CounterDisciplineRule()], module="repro.core.x", stats=stats
        )
        assert findings == []
        assert stats.suppressed == 1

    def test_inline_disable_all_rules(self):
        source = "metrics.duplicates += 1  # repro-lint: disable\n"
        findings = lint_source(
            source, [CounterDisciplineRule()], module="repro.core.x"
        )
        assert findings == []

    def test_disable_wrong_code_does_not_suppress(self):
        source = "metrics.duplicates += 1  # repro-lint: disable=RPL001\n"
        findings = lint_source(
            source, [CounterDisciplineRule()], module="repro.core.x"
        )
        assert codes(findings) == ["RPL003"]

    def test_file_wide_disable(self):
        source = """\
            # repro-lint: disable-file=RPL003
            metrics.duplicates += 1
            metrics.tuple_io += 2
        """
        findings = lint_source(
            textwrap.dedent(source), [CounterDisciplineRule()], module="repro.core.x"
        )
        assert findings == []


class TestParseErrors:
    def test_unparsable_file_reports_rpl900(self):
        findings = lint_source("def broken(:\n", [SeamIsolationRule()])
        assert codes(findings) == [PARSE_ERROR_CODE]


class TestConfigAndSelection:
    def test_select_narrows_the_rule_set(self):
        rules = make_rules(select=["rpl001"])  # codes are case-insensitive
        assert [r.code for r in rules] == ["RPL001"]

    def test_ignore_removes_rules(self):
        rules = make_rules(ignore=["RPL002", "RPL006"])
        assert "RPL002" not in [r.code for r in rules]
        assert "RPL006" not in [r.code for r in rules]
        assert len(rules) == 8


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "0 finding(s) in 1 file(s) (0 suppressed)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("metrics.duplicates += 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        assert "RPL003" in capsys.readouterr().out

    def test_empty_selection_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path), "--select", "RPL999"]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["scr"], "scr"),
            (["README.md"], "no .py file"),
            (["src", "--select", "RPL008,RPL009,RPL01"], "RPL01"),
            (["src", "--ignore", "RPL0O1"], "RPL0O1"),
            (["src", "README.md"], "no .py file under README.md"),
        ],
        ids=["missing-path", "no-python-file", "unknown-select", "unknown-ignore",
             "one-path-without-python"],
    )
    def test_a_run_that_checks_less_than_asked_exits_two(
        self, argv, named, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-lint: ") and named in line

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("metrics.duplicates += 1\n", encoding="utf-8")
        assert main([str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "RPL003"
        assert payload["files"] == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
                     "RPL007", "RPL008", "RPL009", "RPL010"):
            assert code in out

    def test_a_lint_run_writes_no_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\n'
            'baseline = "lint-baseline.json"\n'
            'cache = ".lint-cache.json"\n',
            encoding="utf-8",
        )
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("metrics.duplicates += 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["repro"]) == EXIT_FINDINGS
        assert main(["repro", "--select", "RPL003"]) == EXIT_FINDINGS
        assert sorted(tmp_path.rglob("*")) == before


class TestRepositoryIsClean:
    def test_src_tree_is_clean_under_default_rules(self, capsys):
        """The CI gate: the repository satisfies its own invariants."""
        assert main([str(REPO_ROOT / "src")]) == EXIT_CLEAN
