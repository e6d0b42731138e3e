"""Tests for the chaos plane: fault injection and invariant auditing."""

import os

import pytest

from repro.chaos.audit import (
    InvariantAuditor,
    audit_mode,
    make_auditor,
    set_audit_mode,
)
from repro.chaos.faults import (
    FaultKind,
    FaultPlan,
    active_plan,
    arm_from_env,
    set_fault_plan,
    use_fault_plan,
)
from repro.cli import main
from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.errors import (
    ConfigurationError,
    CorruptPageReadError,
    InvariantViolation,
    ReproError,
    TornWriteError,
)
from repro.experiments.parallel import (
    ExperimentEngine,
    GraphSpec,
    WorkUnit,
    execute_unit,
)
from repro.experiments.queries import QuerySpec
from repro.obs.record import RunRecord
from repro.storage.buffer import BufferPool
from repro.storage.page import PageId, PageKind
from repro.storage.successor_store import ListPlacementPolicy, SuccessorListStore


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    """Every test starts and ends with no plan armed and default audit."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    set_fault_plan(None)
    set_audit_mode(None)
    yield
    # The CLIs export REPRO_CHAOS/REPRO_AUDIT so worker processes can
    # re-arm; pop them explicitly -- monkeypatch.delenv on an *unset*
    # variable records nothing, so it would not undo that export.
    os.environ.pop("REPRO_CHAOS", None)
    os.environ.pop("REPRO_AUDIT", None)
    set_fault_plan(None)
    set_audit_mode(None)


class TestSpecParsing:
    def test_single_fault_after(self):
        plan = FaultPlan.parse("corrupt-read,after=3")
        assert plan.armed(FaultKind.CORRUPT_READ)
        assert not plan.armed(FaultKind.TORN_WRITE)

    def test_multi_clause_with_seed(self):
        plan = FaultPlan.parse("seed=7;slow-io,p=0.5,ms=2;evict-storm,p=0.1,k=3")
        assert plan.seed == 7
        assert plan.armed(FaultKind.SLOW_IO)
        assert plan.armed(FaultKind.EVICT_STORM)

    def test_underscores_accepted(self):
        assert FaultPlan.parse("corrupt_read,after=1").armed(FaultKind.CORRUPT_READ)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault"):
            FaultPlan.parse("page-eater,p=0.1")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="bad parameter"):
            FaultPlan.parse("slow-io,p=0.1,volume=11")

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ConfigurationError, match="needs a number"):
            FaultPlan.parse("slow-io,p=often")

    def test_missing_trigger_rejected(self):
        with pytest.raises(ConfigurationError, match="needs a trigger"):
            FaultPlan.parse("corrupt-read")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="arms no faults"):
            FaultPlan.parse("seed=3")

    def test_duplicate_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="armed twice"):
            FaultPlan.parse("slow-io,p=0.1;slow-io,p=0.2")

    def test_probability_range_checked(self):
        with pytest.raises(ConfigurationError, match=r"p must be in \[0, 1\]"):
            FaultPlan.parse("corrupt-read,p=1.5")


class TestDeterminism:
    def test_same_seed_same_firing_points(self):
        def firings(spec):
            plan = FaultPlan.parse(spec)
            return [
                opportunity
                for opportunity in range(1, 501)
                if plan.fire(FaultKind.CORRUPT_READ) is not None
            ]

        first = firings("seed=11;corrupt-read,p=0.05,times=5")
        second = firings("seed=11;corrupt-read,p=0.05,times=5")
        assert first == second
        assert len(first) == 5

    def test_arming_extra_fault_does_not_shift_existing_one(self):
        def corrupt_firings(spec):
            plan = FaultPlan.parse(spec)
            fired = []
            for _ in range(500):
                plan.fire(FaultKind.SLOW_IO)  # opportunity even when unarmed
                if plan.fire(FaultKind.CORRUPT_READ) is not None:
                    fired.append(True)
            return len(fired)

        alone = corrupt_firings("seed=3;corrupt-read,p=0.02")
        with_slow_io = corrupt_firings("seed=3;corrupt-read,p=0.02;slow-io,p=0.5,ms=0")
        assert alone == with_slow_io

    def test_after_counts_opportunities(self):
        plan = FaultPlan.parse("corrupt-read,after=4")
        events = [plan.fire(FaultKind.CORRUPT_READ) for _ in range(6)]
        assert [e is not None for e in events] == [False, False, False, True, False, False]

    def test_env_arming(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "torn-write,after=2")
        plan = arm_from_env()
        assert plan is not None and active_plan() is plan
        assert plan.armed(FaultKind.TORN_WRITE)

    def test_env_empty_is_no_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "  ")
        assert arm_from_env() is None

    def test_env_bad_spec_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "warp-core-breach,p=0.5")
        with pytest.raises(ConfigurationError) as excinfo:
            arm_from_env()
        message = str(excinfo.value)
        assert "REPRO_CHAOS" in message
        assert "warp-core-breach" in message

    def test_env_bad_param_is_wrapped_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt-read,p=banana")
        with pytest.raises(ConfigurationError, match="REPRO_CHAOS"):
            arm_from_env()

    def test_env_engine_bad_value_lists_valid_engines(self, monkeypatch):
        from repro.storage.engine import default_engine

        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ConfigurationError) as excinfo:
            default_engine()
        message = str(excinfo.value)
        assert "REPRO_ENGINE" in message and "turbo" in message
        assert "paged" in message and "fast" in message

    def test_env_engine_empty_falls_back_to_paged(self, monkeypatch):
        from repro.storage.engine import default_engine

        monkeypatch.setenv("REPRO_ENGINE", "  ")
        assert default_engine() == "paged"


def _run_btc(graph, system=None):
    return make_algorithm("btc").run(graph, Query.full(), system or SystemConfig())


class TestFaultSites:
    # Read-site faults need buffer misses to get opportunities; a
    # 4-page pool forces plenty of physical reads on medium_dag.
    SMALL_POOL = SystemConfig(buffer_pages=4)

    def test_corrupt_read_raises_structured(self, medium_dag):
        with use_fault_plan(FaultPlan.parse("corrupt-read,after=2")):
            with pytest.raises(CorruptPageReadError) as excinfo:
                _run_btc(medium_dag, self.SMALL_POOL)
        assert isinstance(excinfo.value, ReproError)
        assert "opportunity 2" in str(excinfo.value)

    def test_torn_write_raises_structured(self, small_dag):
        with use_fault_plan(FaultPlan.parse("torn-write,after=10")):
            with pytest.raises(TornWriteError) as excinfo:
                _run_btc(small_dag)
        assert isinstance(excinfo.value, ReproError)

    def test_slow_io_only_delays(self, small_dag):
        clean = _run_btc(small_dag)
        with use_fault_plan(FaultPlan.parse("slow-io,p=1,ms=0")) as plan:
            injured = _run_btc(small_dag)
        assert injured.successor_bits == clean.successor_bits
        assert injured.metrics.total_io == clean.metrics.total_io
        assert plan.events  # it did fire

    def test_evict_storm_degrades_but_stays_correct(self, medium_dag):
        clean = _run_btc(medium_dag, self.SMALL_POOL)
        with use_fault_plan(FaultPlan.parse("seed=1;evict-storm,p=0.2")) as plan:
            injured = _run_btc(medium_dag, self.SMALL_POOL)
        assert injured.successor_bits == clean.successor_bits
        assert plan.events
        # Storms discard warm pages, so physical reads can only go up.
        assert injured.metrics.io.total_reads >= clean.metrics.io.total_reads

    def test_evict_storm_respects_pins(self, small_dag):
        pool = BufferPool(4)
        pages = [PageId(PageKind.RELATION, n) for n in range(3)]
        for page in pages:
            pool.access(page)
        pool.pin(pages[0])
        evicted = pool.storm_evict()
        assert evicted == 2
        assert pages[0] in pool

    def test_torn_write_leaves_store_auditable(self, small_dag):
        """A detected torn write must not corrupt the layout accounting."""
        set_audit_mode("strict")
        with use_fault_plan(FaultPlan.parse("torn-write,after=20")):
            with pytest.raises(TornWriteError):
                _run_btc(small_dag)
        # No InvariantViolation: the fault fired before any mutation.


class TestUnitBoundary:
    def _unit(self):
        return WorkUnit(
            cell_index=0,
            algorithm="btc",
            graph=GraphSpec.custom(40, 3.0, 15, seed=1),
            query=QuerySpec.full(),
            system=SystemConfig(),
        )

    def test_crash_unit_becomes_fault_error(self):
        with use_fault_plan(FaultPlan.parse("crash-unit,p=1")):
            outcome = execute_unit(self._unit(), timeout=None)
        assert outcome.error is not None
        assert outcome.error.kind == "fault"
        assert "InjectedCrashError" in outcome.error.message

    def test_crash_once_then_retry_succeeds(self):
        with use_fault_plan(FaultPlan.parse("crash-unit,after=1")):
            engine = ExperimentEngine(jobs=1, retries=1, backoff=0.0)
            outcomes = engine.map_units([self._unit()])
        assert outcomes[0].ok
        assert not engine.failures

    def test_fault_events_attached_to_record(self):
        with use_fault_plan(FaultPlan.parse("slow-io,p=1,ms=0")):
            outcome = execute_unit(self._unit(), timeout=None)
        assert outcome.ok
        assert outcome.record.faults
        assert outcome.record.faults[0]["kind"] == "slow-io"
        assert "faults" in outcome.record.to_dict()

    def test_clean_record_serialises_without_faults_key(self):
        record = RunRecord(algorithm="btc")
        assert "faults" not in record.to_dict()
        assert RunRecord.from_json(record.to_json()) == record

    def test_backoff_is_deterministic(self):
        delays = [ExperimentEngine(jobs=1, backoff=0.05)._retry_delay(a)
                  for a in (2, 3, 4)]
        again = [ExperimentEngine(jobs=1, backoff=0.05)._retry_delay(a)
                 for a in (2, 3, 4)]
        assert delays == again
        assert all(d > 0 for d in delays)
        assert ExperimentEngine(jobs=1, backoff=0.0)._retry_delay(2) == 0.0


class TestAuditor:
    def test_mode_resolution(self, monkeypatch):
        assert audit_mode() == "cheap"
        monkeypatch.setenv("REPRO_AUDIT", "strict")
        assert audit_mode() == "strict"
        set_audit_mode("off")  # explicit beats env
        assert audit_mode() == "off"
        assert make_auditor() is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvariantViolation):
            set_audit_mode("paranoid")

    def test_strict_run_is_silent_on_healthy_substrate(self, medium_dag):
        set_audit_mode("strict")
        result = make_algorithm("btc").run(medium_dag, Query.ptc([0, 1, 2]))
        assert result.metrics.total_io > 0

    def test_pool_violation_detected(self):
        pool = BufferPool(4)
        page = PageId(PageKind.RELATION, 0)
        pool.access(page)
        pool._frames[page].pin_count = 3  # bypass pin(): books disagree now
        with pytest.raises(InvariantViolation, match="pool.pinned-set"):
            InvariantAuditor().check_pool(pool)

    @pytest.mark.parametrize("policy", list(ListPlacementPolicy))
    def test_store_page_lists_stay_current(self, policy):
        """Splits, relocations, rewrites and drops keep every cached page
        list equal to its blocks' pages, checked after each operation."""
        auditor = InvariantAuditor(strict=True)
        pool = BufferPool(6, auditor=auditor)  # strict: pool re-checked per eviction
        store = SuccessorListStore(pool, policy=policy, blocks_per_page=4, block_capacity=3)
        for node in range(6):
            store.create_list(node, 5)
            auditor.check_store(store)
        for step in range(40):
            store.append(step % 6, 1 + step % 4)
            auditor.check_store(store)
        widest = max(range(6), key=store.page_count)
        store.rewrite_list(widest, 7)
        auditor.check_store(store)
        store.drop_list((widest + 1) % 6)
        auditor.check_store(store)
        assert store.splits > 0
        assert (store.relocations > 0) == (policy is not ListPlacementPolicy.MOVE_SELF)
        assert any(store.page_count(node) > 1 for node in store._layouts)

    def test_corrupted_page_list_detected(self):
        store = SuccessorListStore(BufferPool(4), blocks_per_page=2, block_capacity=2)
        store.create_list(0, 6)  # three blocks over two pages
        InvariantAuditor().check_store(store)
        store._layouts[0].pages.reverse()
        with pytest.raises(InvariantViolation, match="store.page-list"):
            InvariantAuditor().check_store(store)

    def test_stored_page_id_of_another_page_detected(self):
        store = SuccessorListStore(BufferPool(4), kind=PageKind.OUTPUT)
        store.create_list(0, 3)
        store._page_ids[0] = PageId(PageKind.SUCCESSOR, 0)
        with pytest.raises(InvariantViolation, match="store.page-list"):
            InvariantAuditor().check_store(store)

    def test_violation_names_invariant_and_context(self):
        error = InvariantViolation("pool.residency", "too many pages",
                                   resident=7, capacity=4)
        assert error.invariant == "pool.residency"
        assert "resident=7" in str(error)


class TestChaosCli:
    def test_injected_fault_exits_structured(self, capsys):
        code = main(["--algorithm", "btc", "--family", "G4", "--scale", "8",
                     "--chaos", "corrupt-read,after=1", "--quiet"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: CorruptPageReadError" in captured.err
        assert "injected faults (fired/opportunities)" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_spec_exits_structured(self, capsys):
        code = main(["--algorithm", "btc", "--family", "G4", "--scale", "8",
                     "--chaos", "nonsense", "--quiet"])
        assert code == 1
        assert "unknown fault" in capsys.readouterr().err

    def test_audit_strict_clean_run_exits_zero(self, capsys):
        code = main(["--algorithm", "btc", "--family", "G4", "--scale", "8",
                     "--audit", "strict", "--quiet"])
        assert code == 0
