"""Integration tests for in-shard hierarchical aggregation.

The contract: with ``aggregation="hierarchical"`` every backend folds
updates slot-locally and ships partial aggregates, yet global weights,
losses and RNG streams stay bit-identical to the flat serial reference —
while upstream (reply) bytes become independent of the fleet size.
"""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticImageSpec, VirtualClientDatasets
from repro.fl import (AGGREGATION_MODES, ClientConfig, FLClient,
                      SerialBackend, TrainingSummary, VirtualFleet,
                      executor, make_backend)
from repro.fl.transport import connect_to_shard
from repro.nn import ModelMask, SoftmaxCrossEntropy
from repro.nn.model import Sequential

from ..conftest import (FAST_DEVICE, TINY_SPEC, make_tiny_model,
                        make_tiny_simulation)
from .test_transport import _shard_server

BACKENDS = ("serial", "persistent", "sharded")
RESIDENT_BACKENDS = ("persistent", "sharded")


def _draw_masks(sim, rng):
    return {1: ModelMask.random(sim.server.global_model,
                                {"fc1": 0.5, "fc2": 0.5}, rng=rng)}


def _collaborate(backend_name, aggregation, masked, num_cycles=2):
    """Losses + final global weights of one tiny collaboration."""
    sim = make_tiny_simulation()
    sim.set_backend(backend_name, max_workers=2, aggregation=aggregation)
    rng = np.random.default_rng(7)
    losses = []
    try:
        for cycle in range(1, num_cycles + 1):
            masks = _draw_masks(sim, rng) if masked else None
            summaries = sim.train_and_aggregate(
                sim.client_indices(), masks=masks, base_cycle=cycle,
                partial=masked)
            losses.append(tuple(s.train_loss for s in summaries))
        weights = sim.server.get_global_weights()
    finally:
        sim.close()
    return losses, weights


#: Serial flat reference runs, computed once per (masked,) variant.
_REFERENCE = {}


def _reference(masked):
    if masked not in _REFERENCE:
        _REFERENCE[masked] = _collaborate("serial", "flat", masked)
    return _REFERENCE[masked]


class TestAggregationKnob:
    def test_default_is_hierarchical(self):
        assert SerialBackend().aggregation == "hierarchical"
        for name in BACKENDS:
            backend = make_backend(name, max_workers=1)
            try:
                assert backend.aggregation == "hierarchical", name
            finally:
                backend.close()

    def test_named_backends_accept_hierarchical(self):
        backend = make_backend("serial", aggregation="hierarchical")
        assert backend.aggregation == "hierarchical"
        assert make_backend("serial", aggregation="flat").aggregation == \
            "flat"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="aggregation"):
            make_backend("serial", aggregation="tree")
        assert "tree" not in AGGREGATION_MODES

    def test_instance_rejects_aggregation(self):
        backend = SerialBackend()
        with pytest.raises(ValueError, match="aggregation"):
            make_backend(backend, aggregation="hierarchical")

    def test_set_backend_forwards_aggregation(self):
        sim = make_tiny_simulation()
        try:
            sim.set_backend("serial", aggregation="flat")
            assert sim.backend.aggregation == "flat"
        finally:
            sim.close()


class TestTrainAndAggregateParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_unmasked_hierarchical_matches_serial_flat(self, backend_name):
        ref_losses, ref_weights = _reference(False)
        losses, weights = _collaborate(backend_name, "hierarchical", False)
        assert losses == ref_losses
        for name in ref_weights:
            assert weights[name].dtype == np.float32, name
            np.testing.assert_array_equal(weights[name], ref_weights[name],
                                          err_msg=name)

    @pytest.mark.parametrize("backend_name",
                             ("serial",) + RESIDENT_BACKENDS)
    def test_masked_hierarchical_matches_serial_flat(self, backend_name):
        ref_losses, ref_weights = _reference(True)
        losses, weights = _collaborate(backend_name, "hierarchical", True)
        assert losses == ref_losses
        for name in ref_weights:
            assert weights[name].dtype == np.float32, name
            np.testing.assert_array_equal(weights[name], ref_weights[name],
                                          err_msg=name)

    def test_summaries_are_weight_free_updates(self):
        sim = make_tiny_simulation()
        try:
            summaries = sim.train_and_aggregate(sim.client_indices(),
                                                partial=False)
            assert all(isinstance(s, TrainingSummary) for s in summaries)
            assert [s.client_id for s in summaries] == sim.client_indices()
            assert [s.index for s in summaries] == sim.client_indices()
            for index, summary in zip(sim.client_indices(), summaries):
                client = sim.client(index)
                assert summary.client_name == client.name
                assert summary.num_samples == client.num_samples
                assert np.isfinite(summary.train_loss)
                assert summary.contributions is None  # no mask, no Eq. 1
        finally:
            sim.close()

    def test_empty_batch_raises(self):
        sim = make_tiny_simulation()
        try:
            with pytest.raises(ValueError):
                sim.train_and_aggregate([])
        finally:
            sim.close()

    def test_hierarchical_advances_server_cycle(self):
        sim = make_tiny_simulation()
        try:
            sim.set_backend("serial", aggregation="hierarchical")
            before = sim.server.current_cycle
            sim.train_and_aggregate(sim.client_indices(), partial=False)
            assert sim.server.current_cycle == before + 1
        finally:
            sim.close()


class TestEmptyBatchShortCircuit:
    """Satellite regression: ``train_clients([])``/``run_jobs([])`` must
    short-circuit identically on every backend — resident backends
    must not open a wire batch."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_empty_batch_returns_empty_list(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        try:
            assert sim.train_clients([]) == []
            assert sim.run_jobs([]) == []
            assert sim.backend.run_jobs(sim.clients, []) == []
        finally:
            sim.close()

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_empty_batch_opens_no_wire_state(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2)
        try:
            assert sim.backend.run_jobs(sim.clients, []) == []
            # No frame was encoded, no worker became resident — the
            # next real batch is a cold start.
            assert sim.backend.last_dispatch_bytes == 0
            assert not sim.backend._resident
        finally:
            sim.close()

    @pytest.mark.parametrize("backend_name", RESIDENT_BACKENDS)
    def test_empty_fold_opens_no_wire_state(self, backend_name):
        sim = make_tiny_simulation()
        sim.set_backend(backend_name, max_workers=2,
                        aggregation="hierarchical")
        try:
            partials, summaries = sim.backend.run_fold(
                sim.clients, [], [], structure=sim.server.structure)
            assert partials == [] and summaries == []
            assert sim.backend.last_dispatch_bytes == 0
        finally:
            sim.close()


def _tiny_fleet(num_clients):
    return VirtualFleet(
        num_clients=num_clients,
        dataset_factory=VirtualClientDatasets(TINY_SPEC,
                                              samples_per_client=8, seed=11),
        device=FAST_DEVICE,
        model_factory=make_tiny_model,
        config=ClientConfig(batch_size=8, local_epochs=1, learning_rate=0.1),
        seed=3)


class TestVirtualFleets:
    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            _tiny_fleet(0)
        fleet = _tiny_fleet(4)
        with pytest.raises(IndexError):
            fleet.spec_for(4)
        assert fleet.uniform_factor == 0.25

    def test_spec_for_is_deterministic(self):
        fleet = _tiny_fleet(4)
        first = fleet.spec_for(2)
        second = fleet.spec_for(2)
        assert first.client_id == second.client_id == 2
        np.testing.assert_array_equal(first.dataset.images,
                                      second.dataset.images)

    @pytest.mark.parametrize("backend_name,aggregation", [
        ("serial", "hierarchical"),
        ("persistent", "flat"),
        ("persistent", "hierarchical"),
        ("sharded", "hierarchical"),
    ])
    def test_virtual_cycle_matches_serial_flat(self, backend_name,
                                               aggregation):
        def run(name, mode):
            sim = make_tiny_simulation()
            sim.set_backend(name, max_workers=2, aggregation=mode)
            try:
                outcomes = [sim.run_virtual_cycle(_tiny_fleet(12))
                            for _ in range(2)]
                weights = sim.server.get_global_weights()
            finally:
                sim.close()
            return outcomes, weights

        ref_outcomes, ref_weights = run("serial", "flat")
        outcomes, weights = run(backend_name, aggregation)
        assert outcomes == ref_outcomes
        for name in ref_weights:
            np.testing.assert_array_equal(weights[name], ref_weights[name],
                                          err_msg=name)

    def test_upstream_bytes_independent_of_fleet_size(self):
        """The tentpole property: hierarchical shard->parent bytes do not
        grow with the number of logical clients (flat bytes do)."""
        def reply_bytes(mode, num_clients):
            sim = make_tiny_simulation()
            sim.set_backend("persistent", max_workers=2, aggregation=mode)
            try:
                sim.run_virtual_cycle(_tiny_fleet(num_clients))
                return sim.backend.last_reply_bytes
            finally:
                sim.close()

        hier_small = reply_bytes("hierarchical", 8)
        hier_large = reply_bytes("hierarchical", 32)
        assert hier_small == hier_large
        flat_small = reply_bytes("flat", 8)
        flat_large = reply_bytes("flat", 32)
        assert flat_large > 2 * flat_small
        assert flat_large > 2 * hier_large


# --------------------------------------------------------------------- #
# virtual chunks: three routes, one answer
# --------------------------------------------------------------------- #

_TINY_DATASETS = VirtualClientDatasets(TINY_SPEC, samples_per_client=8,
                                       seed=11)
_PLAIN = ClientConfig(batch_size=8, local_epochs=1, learning_rate=0.1)
_HEAVY = ClientConfig(batch_size=3, local_epochs=2, learning_rate=0.1,
                      momentum=0.9, weight_decay=0.01)


def _per_client_datasets(client_id):
    """``_TINY_DATASETS`` without its ``.batch``: a plain function."""
    return _TINY_DATASETS(client_id)


class _SequentialSubclass(Sequential):
    """Same math, distinct type — never stacked."""


def _make_subclassed_tiny_model():
    model = make_tiny_model()
    return _SequentialSubclass(model.layers, name=model.name)


class _OddLossFleet(VirtualFleet):
    """A fleet whose clients carry a loss factory stacking does not know."""

    def spec_for(self, client_id):
        return super().spec_for(client_id).replace(
            loss_factory=_subclassed_loss)


class _SubclassedLoss(SoftmaxCrossEntropy):
    pass


def _subclassed_loss():
    return _SubclassedLoss()


#: route name -> (dataset factory, model factory)
_ROUTES = {
    "batched-synthesis+stacked": (_TINY_DATASETS, make_tiny_model),
    "per-client-synthesis+stacked": (_per_client_datasets, make_tiny_model),
    "classic-loop": (_TINY_DATASETS, _make_subclassed_tiny_model),
}


def _route_fleet(route, config=_PLAIN, num_clients=400, cls=VirtualFleet):
    dataset_factory, model_factory = _ROUTES[route]
    return cls(num_clients=num_clients, dataset_factory=dataset_factory,
               device=FAST_DEVICE, model_factory=model_factory,
               config=config, seed=3)


def _virtual_batch(fleet, lo, hi, return_updates=False, weights=None,
                   factor=None):
    factor = fleet.uniform_factor if factor is None else factor
    return executor._WireVirtualBatch(
        weights_table=[weights if weights is not None
                       else make_tiny_model().get_weights()],
        template=fleet, lo=lo, hi=hi, factor=factor,
        loss_scale=fleet.uniform_factor, return_updates=return_updates)


def _result_bytes(result):
    """Everything a virtual batch answers, as comparable plain data."""
    kind, payload, loss_levels, count = result
    if kind == "partial":
        body = (payload.num_updates,
                [(name, payload.weighted_sums[name].tobytes(),
                  payload.weight_tables[name].tobytes())
                 for name in payload.weighted_sums])
    else:
        body = [(update.client_id, update.client_name, update.num_samples,
                 update.train_loss, update.local_epochs, update.base_cycle,
                 update.mask, update.extra,
                 [(name, value.dtype, value.shape, value.tobytes())
                  for name, value in update.weights.items()])
                for update in payload]
    return kind, body, loss_levels.tobytes(), count


class _RouteSpy:
    """Counts what each route is made of while a batch runs."""

    def __init__(self, monkeypatch):
        self.stacked_chunks = self.batched_syntheses = self.classic = 0
        train_stacked = executor.train_stacked
        batch = VirtualClientDatasets.batch
        local_train = FLClient.local_train

        def counting_train_stacked(*args, **kwargs):
            self.stacked_chunks += 1
            return train_stacked(*args, **kwargs)

        def counting_batch(factory, client_ids):
            self.batched_syntheses += 1
            return batch(factory, client_ids)

        def counting_local_train(client, *args, **kwargs):
            self.classic += 1
            return local_train(client, *args, **kwargs)

        monkeypatch.setattr(executor, "train_stacked",
                            counting_train_stacked)
        monkeypatch.setattr(VirtualClientDatasets, "batch", counting_batch)
        monkeypatch.setattr(FLClient, "local_train", counting_local_train)

    def counts(self):
        return self.batched_syntheses, self.stacked_chunks, self.classic


class TestVirtualChunkRoutes:
    """The same id range through batched synthesis + stacked training,
    per-client synthesis + stacked training and the per-client loop."""

    @pytest.mark.parametrize("config", [_PLAIN, _HEAVY],
                             ids=["plain", "momentum-decay-2ep-batch3"])
    @pytest.mark.parametrize("span", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("return_updates", [False, True],
                             ids=["partial", "updates"])
    def test_three_routes_one_answer(self, monkeypatch, config, span,
                                     return_updates):
        spy = _RouteSpy(monkeypatch)
        chunks = -(-span // executor._STACK_CHUNK)
        expected_counts = {
            "batched-synthesis+stacked": (chunks, chunks, 0),
            "per-client-synthesis+stacked": (0, chunks, 0),
            "classic-loop": (0, 0, span),
        }
        answers = {}
        for route in _ROUTES:
            before = spy.counts()
            answers[route] = _result_bytes(executor._run_virtual_batch(
                _virtual_batch(_route_fleet(route, config), 100, 100 + span,
                               return_updates)))
            made_of = tuple(after - start for after, start
                            in zip(spy.counts(), before))
            assert made_of == expected_counts[route], route
        assert answers["classic-loop"][3] == span
        assert answers["batched-synthesis+stacked"] == answers["classic-loop"]
        assert (answers["per-client-synthesis+stacked"]
                == answers["classic-loop"])

    def test_unknown_loss_runs_the_classic_loop(self, monkeypatch):
        spy = _RouteSpy(monkeypatch)
        fleet = _route_fleet("batched-synthesis+stacked", cls=_OddLossFleet)
        result = executor._run_virtual_batch(_virtual_batch(fleet, 0, 5))
        assert spy.counts() == (0, 0, 5)
        reference = executor._run_virtual_batch(_virtual_batch(
            _route_fleet("batched-synthesis+stacked"), 0, 5))
        assert _result_bytes(result) == _result_bytes(reference)

    def test_fortran_order_snapshot_runs_the_classic_loop(self,
                                                          monkeypatch):
        spy = _RouteSpy(monkeypatch)
        weights = make_tiny_model().get_weights()
        weights["fc1/weight"] = np.asfortranarray(weights["fc1/weight"])
        fleet = _route_fleet("batched-synthesis+stacked")
        executor._run_virtual_batch(_virtual_batch(fleet, 0, 3,
                                                   weights=weights))
        assert spy.counts() == (0, 0, 3)

    def test_chunk_that_does_not_stack_runs_the_classic_loop(
            self, monkeypatch):
        """Geometry is a per-chunk property: one client with another
        sample count sends its chunk (only) through the loop."""
        spy = _RouteSpy(monkeypatch)
        fleet = VirtualFleet(
            num_clients=200, dataset_factory=_ragged_datasets,
            device=FAST_DEVICE, model_factory=make_tiny_model,
            config=_PLAIN, seed=3)
        result = executor._run_virtual_batch(_virtual_batch(fleet, 0, 130))
        # Chunks [0, 64) and [128, 130) stack; [64, 128) holds client 70.
        assert spy.counts() == (0, 2, 64)
        classic = VirtualFleet(
            num_clients=200, dataset_factory=_ragged_datasets,
            device=FAST_DEVICE, model_factory=_make_subclassed_tiny_model,
            config=_PLAIN, seed=3)
        reference = executor._run_virtual_batch(
            _virtual_batch(classic, 0, 130))
        assert _result_bytes(result) == _result_bytes(reference)


def _ragged_datasets(client_id):
    if client_id == 70:
        return VirtualClientDatasets(TINY_SPEC, samples_per_client=5,
                                     seed=11)(client_id)
    return _TINY_DATASETS(client_id)


def _datasets_with_an_empty_one(client_id):
    dataset = _TINY_DATASETS(client_id)
    return dataset.subset([]) if client_id == 9 else dataset


_WIDE_SPEC = SyntheticImageSpec(
    name="wide", image_shape=(1, 8, 8), num_classes=5, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)
_WIDE_DATASETS = VirtualClientDatasets(_WIDE_SPEC, samples_per_client=8,
                                       seed=11)


class TestVirtualChunkChecks:
    """Every check the per-client loop made is still made: an input the
    loop rejects is rejected, with the same exception type, whichever
    route the batch would take."""

    ROUTES = ("batched-synthesis+stacked", "classic-loop")

    @pytest.mark.parametrize("lo,hi", [(5, 3), (-1, 4), (0, 401),
                                       (0.0, 4), (0, None)])
    def test_range_outside_the_fleet_is_refused_before_any_work(
            self, monkeypatch, lo, hi):
        spy = _RouteSpy(monkeypatch)
        fleet = _route_fleet("batched-synthesis+stacked")
        with pytest.raises(ValueError, match="400") as raised:
            executor._run_virtual_batch(_virtual_batch(fleet, lo, hi))
        assert repr(lo) in str(raised.value)
        assert repr(hi) in str(raised.value)
        assert spy.counts() == (0, 0, 0)

    def test_empty_range_answers_an_empty_partial(self):
        fleet = _route_fleet("batched-synthesis+stacked")
        kind, payload, loss_levels, count = executor._run_virtual_batch(
            _virtual_batch(fleet, 7, 7))
        assert (kind, payload, count) == ("partial", None, 0)
        assert not loss_levels.any()

    @pytest.mark.parametrize("route", ROUTES)
    def test_labels_beyond_the_logits(self, monkeypatch, route):
        """Five classes into four logits: the loss' range check."""
        spy = _RouteSpy(monkeypatch)
        _, model_factory = _ROUTES[route]
        fleet = VirtualFleet(
            num_clients=400, dataset_factory=_WIDE_DATASETS,
            device=FAST_DEVICE, model_factory=model_factory,
            config=_PLAIN, seed=3)
        # Start at a client whose own labels fit, so the stacked route's
        # probe is eligible and the chunk reaches the stacked engine.
        first = next(client_id for client_id in range(400)
                     if _WIDE_DATASETS(client_id).labels.max() < 4)
        with pytest.raises(ValueError, match="labels out of range"):
            executor._run_virtual_batch(
                _virtual_batch(fleet, first, first + 40))
        if route == "classic-loop":
            assert spy.stacked_chunks == 0 and spy.classic > 0
        else:
            assert spy.stacked_chunks == 1 and spy.classic == 0

    def test_batched_synthesis_keeps_dataset_validation(self, monkeypatch):
        from repro.data import synthetic

        def out_of_range(num_samples, spec, rngs):
            images, labels = synthesise(num_samples, spec, rngs)
            labels[-1, -1] = spec.num_classes
            return images, labels

        synthesise = synthetic._synthesise
        monkeypatch.setattr(synthetic, "_synthesise", out_of_range)
        with pytest.raises(ValueError, match="labels out of range"):
            _TINY_DATASETS.batch(range(4))
        with pytest.raises(ValueError, match="labels out of range"):
            _TINY_DATASETS(3)

    def test_empty_client_dataset(self):
        fleet = VirtualFleet(
            num_clients=400, dataset_factory=_datasets_with_an_empty_one,
            device=FAST_DEVICE, model_factory=make_tiny_model,
            config=_PLAIN, seed=3)
        with pytest.raises(ValueError, match="must not be empty"):
            executor._run_virtual_batch(_virtual_batch(fleet, 0, 20))

    @pytest.mark.parametrize("route", ROUTES)
    def test_nonpositive_epochs(self, route):
        config = ClientConfig(batch_size=8, learning_rate=0.1)
        object.__setattr__(config, "local_epochs", 0)
        with pytest.raises(ValueError, match="local_epochs"):
            executor._run_virtual_batch(
                _virtual_batch(_route_fleet(route, config), 0, 4))

    @pytest.mark.parametrize("route", ROUTES)
    def test_snapshot_of_another_shape(self, route):
        weights = make_tiny_model().get_weights()
        weights["fc2/weight"] = weights["fc2/weight"][:, :-1]
        with pytest.raises(ValueError, match="shape mismatch"):
            executor._run_virtual_batch(
                _virtual_batch(_route_fleet(route), 0, 4, weights=weights))

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("factor", [-0.25, float("nan"), float("inf")])
    def test_bad_weight_factor(self, route, factor):
        with pytest.raises(ValueError, match="finite and non-negative"):
            executor._run_virtual_batch(
                _virtual_batch(_route_fleet(route), 0, 4, factor=factor))

    @pytest.mark.parametrize("route", ROUTES)
    def test_addend_outside_the_summation_domain(self, route):
        weights = {name: value + 2.0 ** 14 for name, value
                   in make_tiny_model().get_weights().items()}
        with pytest.raises(ValueError, match="reproducible-summation"):
            executor._run_virtual_batch(_virtual_batch(
                _route_fleet(route), 0, 4, weights=weights, factor=1.0))


class TestVirtualRangeOnAShard:
    def test_bad_range_is_an_error_reply_and_the_shard_lives_on(self):
        fleet = _route_fleet("batched-synthesis+stacked")
        with _shard_server() as address:
            channel = connect_to_shard(address, timeout=5)
            try:
                channel.send(("vfold", _virtual_batch(fleet, 5, 3)))
                kind, payload = channel.recv()
                assert kind == "error"
                assert isinstance(payload, ValueError)
                assert "lo=5, hi=3" in str(payload)
                channel.send(("vfold", _virtual_batch(fleet, 3, 5)))
                kind, payload = channel.recv()
                assert kind == "results"
                assert _result_bytes(payload) == _result_bytes(
                    executor._run_virtual_batch(
                        _virtual_batch(fleet, 3, 5)))
            finally:
                channel.close()
