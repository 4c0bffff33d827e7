"""Unit tests for the MICA workload binding and service model."""

import pytest

from repro.hw.constants import HwConstants
from repro.kvs.dataset import build_dataset, make_key
from repro.kvs.handlers import MicaServiceModel, MicaWorkload
from repro.workload.request import RequestKind
from tests.conftest import make_request


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(n_partitions=4, n_keys=400, seed=3)


def make_workload(dataset, **kwargs):
    defaults = dict(scan_fraction=0.01, seed=5)
    defaults.update(kwargs)
    return MicaWorkload(dataset, MicaServiceModel.nanorpc(), n_groups=4,
                        **defaults)


class TestServiceModel:
    def test_nanorpc_get_set_are_tens_of_ns(self):
        model = MicaServiceModel.nanorpc()
        assert 40 <= model.service_ns(RequestKind.GET, 1) <= 80
        assert 40 <= model.service_ns(RequestKind.SET, 1) <= 80

    def test_erpc_is_around_850ns(self):
        model = MicaServiceModel.erpc()
        assert 850 <= model.service_ns(RequestKind.SET, 0) <= 1_000

    def test_get_slower_than_set(self):
        for model in (MicaServiceModel.nanorpc(), MicaServiceModel.erpc()):
            assert model.service_ns(RequestKind.GET, 1) > model.service_ns(
                RequestKind.SET, 1
            )

    def test_scan_dominates(self):
        model = MicaServiceModel.nanorpc()
        assert model.service_ns(RequestKind.SCAN, 1) == model.scan_ns

    def test_probe_depth_adds_cost(self):
        model = MicaServiceModel.nanorpc()
        assert model.service_ns(RequestKind.GET, 10) == (
            model.service_ns(RequestKind.GET, 0) + 10 * model.probe_ns
        )

    def test_mean_service_closed_form(self):
        model = MicaServiceModel.nanorpc()
        mean = model.mean_service_ns(get_fraction=0.5, scan_fraction=0.005)
        assert mean == pytest.approx(
            0.995 * (0.5 * (40 + 15 + 2) + 0.5 * (40 + 10 + 2))
            + 0.005 * model.scan_ns
        )

    def test_mean_service_closed_form_with_deletes(self):
        model = MicaServiceModel.nanorpc()
        mean = model.mean_service_ns(
            get_fraction=0.5, scan_fraction=0.005, delete_fraction=0.2
        )
        assert mean == pytest.approx(
            0.795 * (0.5 * (40 + 15 + 2) + 0.5 * (40 + 10 + 2))
            + 0.005 * model.scan_ns
            + 0.2 * (40 + 5 + 2)
        )

    def test_mean_no_longer_ignores_deletes(self):
        # Regression: the closed form used to drop delete_fraction
        # entirely, over-predicting the mean (DELETEs are the cheapest
        # op).
        model = MicaServiceModel.nanorpc()
        with_deletes = model.mean_service_ns(0.5, 0.0, delete_fraction=0.3)
        without = model.mean_service_ns(0.5, 0.0)
        assert with_deletes < without

    def test_mean_no_longer_hardcodes_probe_depth(self):
        # Regression: the closed form used to assume probe depth 1; a
        # loaded store probes deeper and every non-SCAN op pays for it.
        model = MicaServiceModel.nanorpc()
        shallow = model.mean_service_ns(0.5, 0.0, probe_depth=1.0)
        deep = model.mean_service_ns(0.5, 0.0, probe_depth=3.0)
        assert deep == pytest.approx(shallow + 2.0 * model.probe_ns)

    def test_mean_validation(self):
        with pytest.raises(ValueError):
            MicaServiceModel.nanorpc().mean_service_ns(1.5, 0.0)
        with pytest.raises(ValueError):
            MicaServiceModel.nanorpc().mean_service_ns(0.5, 0.0, -0.1)
        with pytest.raises(ValueError):
            MicaServiceModel.nanorpc().mean_service_ns(
                0.5, 0.6, delete_fraction=0.6
            )
        with pytest.raises(ValueError):
            MicaServiceModel.nanorpc().mean_service_ns(
                0.5, 0.0, probe_depth=-1.0
            )


class TestAnalyticVsSimulatedMean:
    """The closed form must track what the factory actually charges:
    draw requests, measure the empirical mean handler time, and compare
    against ``mean_service_ns`` fed the store's *measured* mean probe
    depth.  Service time is linear in probe depth and the key draw is
    independent of the kind draw, so per-kind the match is exact."""

    N_DRAWS = 2_000

    def _empirical(self, dataset, **mix):
        workload = make_workload(dataset, mode="erew", **mix)
        services, probes = [], []
        store = dataset.store
        for i in range(self.N_DRAWS):
            r = make_request(req_id=i)
            workload.request_factory(r)
            services.append(r.service_time)
            owner = store.owner_of(r.key)
            probes.append(store.partitions[owner].index.bucket_load(r.key))
        return sum(services) / len(services), sum(probes) / len(probes)

    @pytest.mark.parametrize("mix", [
        dict(get_fraction=1.0, scan_fraction=0.0),                    # GET
        dict(get_fraction=0.0, scan_fraction=0.0),                    # SET
        dict(get_fraction=0.0, scan_fraction=0.0, delete_fraction=1.0),
        dict(get_fraction=0.0, scan_fraction=1.0),                    # SCAN
    ])
    def test_pure_mix_matches_exactly(self, dataset, mix):
        mean, probe = self._empirical(dataset, **mix)
        model = MicaServiceModel.nanorpc()
        assert mean == pytest.approx(model.mean_service_ns(
            mix.get("get_fraction", 0.5),
            mix.get("scan_fraction", 0.0),
            delete_fraction=mix.get("delete_fraction", 0.0),
            probe_depth=probe,
        ))

    def test_four_kind_mix_matches_statistically(self, dataset):
        mix = dict(get_fraction=0.5, scan_fraction=0.01,
                   delete_fraction=0.2)
        mean, probe = self._empirical(dataset, **mix)
        model = MicaServiceModel.nanorpc()
        analytic = model.mean_service_ns(
            0.5, 0.01, delete_fraction=0.2, probe_depth=probe
        )
        # The 50-us SCAN tail dominates the sampling noise of a finite
        # draw; the run is seed-deterministic, measured within ~5%.
        assert mean == pytest.approx(analytic, rel=0.15)


class TestWorkloadFactory:
    def test_factory_assigns_kind_key_service(self, dataset):
        workload = make_workload(dataset)
        r = make_request()
        workload.request_factory(r)
        assert r.kind in (RequestKind.GET, RequestKind.SET, RequestKind.SCAN)
        assert r.key in dataset.keys
        assert r.service_time > 0
        assert r.remaining == r.service_time

    def test_connection_maps_to_owner_group(self, dataset):
        workload = make_workload(dataset)
        pool = workload._pool
        for _ in range(100):
            r = make_request()
            workload.request_factory(r)
            owner = dataset.store.owner_of(r.key)
            assert pool.hash_to_queue(r.connection, 4) == owner

    def test_op_mix_fractions(self, dataset):
        workload = make_workload(dataset, scan_fraction=0.1, get_fraction=0.5)
        kinds = []
        for _ in range(3_000):
            r = make_request()
            workload.request_factory(r)
            kinds.append(r.kind)
        scans = sum(1 for k in kinds if k is RequestKind.SCAN)
        assert scans / len(kinds) == pytest.approx(0.1, abs=0.03)

    def test_partition_count_must_match_groups(self, dataset):
        with pytest.raises(ValueError):
            MicaWorkload(dataset, MicaServiceModel.nanorpc(), n_groups=8)


class TestExecution:
    def test_execute_runs_op_against_store(self, dataset):
        workload = make_workload(dataset, get_fraction=0.0, scan_fraction=0.0)
        r = make_request()
        workload.request_factory(r)  # a SET
        before = dataset.store.partition(dataset.store.owner_of(r.key)).stats.sets
        workload.execute(r)
        after = dataset.store.partition(dataset.store.owner_of(r.key)).stats.sets
        assert after == before + 1

    def test_unmigrated_request_pays_no_penalty(self, dataset):
        workload = make_workload(dataset)
        r = make_request()
        workload.request_factory(r)
        assert workload.execute(r) == 0.0

    def test_migrated_request_pays_remote_access(self, dataset):
        workload = make_workload(dataset)
        r = make_request()
        workload.request_factory(r)
        r.migrations = 1
        penalty = workload.execute(r)
        assert penalty == HwConstants().coherence_msg_ns
        assert workload.remote_accesses == 1

    def test_get_returns_value(self, dataset):
        workload = make_workload(dataset, get_fraction=1.0, scan_fraction=0.0)
        r = make_request()
        workload.request_factory(r)
        workload.execute(r)
        assert r.app_result is not None

    def test_keyless_request_is_noop(self, dataset):
        workload = make_workload(dataset)
        assert workload.execute(make_request()) == 0.0

    def test_building_the_workload_counts_no_get(self):
        """The SET payload is taken without a GET no request made."""
        dataset = build_dataset(n_partitions=4, n_keys=400, seed=3)
        workload = make_workload(dataset)
        assert [p.stats.gets for p in dataset.store.partitions] == [0] * 4
        assert workload._sample_value == dataset.store.get(dataset.keys[0])


class TestDataset:
    def test_deterministic_keys(self):
        assert make_key(7) == make_key(7)
        assert len(make_key(7)) == 16

    def test_store_preloaded(self, dataset):
        assert dataset.store.total_records() == 400
        assert dataset.store.get(dataset.keys[0]) is not None

    def test_zipf_sampling_skews(self, dataset):
        import numpy as np

        rng = np.random.default_rng(0)
        uniform = [dataset.sample_key(rng, 0.0) for _ in range(2_000)]
        skewed = [dataset.sample_key(rng, 0.9) for _ in range(2_000)]
        head = set(dataset.keys[:40])
        assert sum(k in head for k in skewed) > sum(k in head for k in uniform)


class TestCrewMode:
    def test_crew_adds_concurrency_control_cost(self, dataset):
        erew = make_workload(dataset, mode="erew", scan_fraction=0.0,
                             get_fraction=1.0)
        crew = make_workload(dataset, mode="crew", scan_fraction=0.0,
                             get_fraction=1.0)
        a, b = make_request(), make_request()
        erew.request_factory(a)
        crew.request_factory(b)
        assert b.service_time == pytest.approx(
            a.service_time + MicaWorkload.CREW_CONTROL_NS
        )

    def test_crew_reads_pay_no_migration_penalty(self, dataset):
        crew = make_workload(dataset, mode="crew", scan_fraction=0.0,
                             get_fraction=1.0)
        r = make_request()
        crew.request_factory(r)
        r.migrations = 1
        assert crew.execute(r) == 0.0

    def test_crew_writes_still_pay_ownership_transfer(self, dataset):
        crew = make_workload(dataset, mode="crew", scan_fraction=0.0,
                             get_fraction=0.0)  # all SETs
        r = make_request()
        crew.request_factory(r)
        r.migrations = 1
        assert crew.execute(r) > 0.0

    def test_invalid_mode_rejected(self, dataset):
        with pytest.raises(ValueError):
            make_workload(dataset, mode="mesi")


class TestDelete:
    def test_delete_fraction_produces_deletes(self, dataset):
        workload = make_workload(dataset, delete_fraction=0.5,
                                 scan_fraction=0.0)
        kinds = []
        for _ in range(400):
            r = make_request()
            workload.request_factory(r)
            kinds.append(r.kind)
        deletes = sum(1 for k in kinds if k is RequestKind.DELETE)
        assert deletes / len(kinds) == pytest.approx(0.5, abs=0.08)

    def test_delete_removes_key(self, dataset):
        workload = make_workload(dataset, delete_fraction=1.0,
                                 scan_fraction=0.0)
        r = make_request()
        workload.request_factory(r)
        workload.execute(r)
        assert r.app_result is True
        assert dataset.store.get(r.key) is None

    def test_delete_is_cheaper_than_set(self):
        model = MicaServiceModel.nanorpc()
        assert model.service_ns(RequestKind.DELETE, 1) < model.service_ns(
            RequestKind.SET, 1
        )

    def test_fraction_overflow_rejected(self, dataset):
        with pytest.raises(ValueError):
            make_workload(dataset, scan_fraction=0.6, delete_fraction=0.6)


class TestExecuteHookOnEveryScheduler:
    @pytest.mark.parametrize("system", ["rss", "zygos", "nebula", "cfcfs"])
    def test_admission_wait_reaches_latency(self, system):
        """A non-Altocumulus leaf under a waiting discipline charges each
        admission wait as on-core startup: it shows in the requests'
        ``extra_latency``, not only in ``kvs.ownership.wait_ns``."""
        from repro.api import quick_run
        from repro.kvs.ownership import KvsSpec

        result = quick_run(system, n_cores=16, rate_rps=8e6,
                           mean_service_ns=100, n_requests=3_000,
                           kvs=KvsSpec(mode="erew", mix="hot_key"))
        wait_ns = result.metrics["kvs.ownership.wait_ns"]
        assert wait_ns > 0
        charged = sum(r.extra_latency for r in result.system.finished_requests)
        assert charged >= wait_ns - 1e-6
