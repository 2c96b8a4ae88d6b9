"""Micro-benchmarks of the substrates themselves.

These are conventional pytest-benchmark timings (multiple rounds) of the
hot paths every experiment exercises: a CNN training step, neuron-granular
partial aggregation, the soft-training selection and the analytical cost
model.  They make regressions in the substrate visible independently of
the figure-level experiments.  Whole-cycle wall-clock per backend is the
end-to-end benchmark's job (``benchmarks/e2e``), not this file's.

Besides the pytest-benchmark timings, ``test_substrate_report_json``
writes a machine-readable ``benchmarks/results/BENCH_substrate.json``
with dispatch payload bytes and asserts the resident backends' core
scaling property: warm dispatch is O(weights), independent of dataset
size, and byte-identical on pipes and sockets.  Its ``virtual_fleets``
section sweeps logical fleet sizes — up to a measured 10^6-client
cycle — through ``run_virtual_cycle`` on a 2-shard fleet, timing a
cold cycle and the same fleet's second, memoized one, and asserts
the hierarchical-aggregation claim: upstream bytes independent of the
fleet size.
``dataset_synthesis_ms`` records what the three non-virtual e2e
workloads pay the generator inside their set-up (2 810 samples of the
mnist stand-in).  The ``transport`` section records median ping
round-trips against a live shard server with TCP_NODELAY on (the
default) and off, so the Nagle before/after is visible in the report.
The ``fusion`` section asserts the stacking claim on an MLP (>=2x
clients/sec over the per-client loop, bit-identically) and records a LeNet
row — clients/s at 16 and 64 clients and the peak bytes of one stacked
pass.  ``nn_kernels``
times a train step and an evaluation forward of six CNN shapes on the
conv/pool kernels, on the channel-major conv kernel and on the im2col
reference they replaced.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.core import SoftTrainingSelector
from repro.data.synthetic import (DATASET_SPECS, SyntheticImageSpec,
                                  VirtualClientDatasets,
                                  make_classification_images)
from repro.fl import (ClientConfig, ClientUpdate, FLClient, FLServer,
                      FederatedSimulation, VirtualFleet)
from repro.fl.aggregation import ModelStructure, aggregate_partial
from repro.hardware import DeviceProfile, JETSON_NANO_CPU, TrainingCostModel
from repro.nn import SGD, ModelMask, SoftmaxCrossEntropy
from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.model import Sequential, iter_leaf_layers
from repro.nn.models import build_lenet


def _lenet():
    return build_lenet(width_multiplier=0.4, rng=np.random.default_rng(0))


def test_bench_lenet_train_step(benchmark):
    model = _lenet()
    loss_fn = SoftmaxCrossEntropy()
    optimizer = SGD(model.parameters(), lr=0.05)
    rng = np.random.default_rng(1)
    images = rng.normal(size=(32, 1, 28, 28)).astype(np.float32)
    labels = rng.integers(0, 10, 32)
    benchmark(lambda: model.train_step(images, labels, loss_fn, optimizer))


def test_bench_partial_aggregation(benchmark):
    model = _lenet()
    structure = ModelStructure.from_model(model)
    global_weights = model.get_weights()
    rng = np.random.default_rng(0)
    updates = []
    for client_id in range(6):
        mask = None
        if client_id >= 3:
            mask = ModelMask.random(
                model, {layer.name: 0.3 for layer in model.neuron_layers()},
                rng)
        weights = {name: (value + rng.normal(0, 0.01, value.shape)
                          ).astype(value.dtype)
                   for name, value in global_weights.items()}
        updates.append(ClientUpdate(client_id=client_id,
                                    client_name=f"c{client_id}",
                                    weights=weights, num_samples=100,
                                    train_loss=0.0, mask=mask))
    benchmark(lambda: aggregate_partial(global_weights, updates, structure))


def _reference_aggregate_partial(global_weights, updates, structure,
                                 client_weights=None):
    """The pre-exact-summation per-update loop, kept as the numerical
    reference for :func:`test_partial_aggregation_vectorization_guard`.

    Since the hierarchical-aggregation work, ``aggregate_partial`` sums
    on the error-free pre-rounding grids (order/partition independent);
    this loop uses plain float sums, so it agrees only to ~1e-12, not
    bit for bit."""
    from repro.fl.aggregation import (_neuron_weight_vector,
                                      normalize_weights,
                                      sample_count_weights)

    if client_weights is None:
        weights = sample_count_weights(updates)
    else:
        weights = normalize_weights(client_weights)
    aggregated = {}
    for name, global_value in global_weights.items():
        info = structure[name] if name in structure else None
        global_value = np.asarray(global_value)
        if info is None or info.layer_name is None or info.neuron_axis is None:
            stacked = np.stack([update.weights[name] for update in updates])
            aggregated[name] = np.tensordot(weights, stacked, axes=1)
            continue
        axis = info.neuron_axis
        num_neurons = global_value.shape[axis]
        numerator = np.zeros_like(global_value, dtype=np.float64)
        denominator = np.zeros(num_neurons, dtype=np.float64)
        for weight, update in zip(weights, updates):
            layer_mask = None
            if update.mask is not None and info.layer_name in update.mask:
                layer_mask = update.mask[info.layer_name]
            neuron_weights = _neuron_weight_vector(layer_mask, num_neurons,
                                                   float(weight))
            denominator += neuron_weights
            broadcast_shape = [1] * global_value.ndim
            broadcast_shape[axis] = num_neurons
            numerator += (neuron_weights.reshape(broadcast_shape)
                          * np.asarray(update.weights[name]))
        covered = denominator > 0
        safe_denominator = np.where(covered, denominator, 1.0)
        broadcast_shape = [1] * global_value.ndim
        broadcast_shape[axis] = num_neurons
        blended = numerator / safe_denominator.reshape(broadcast_shape)
        keep_mask = (~covered).reshape(broadcast_shape)
        aggregated[name] = np.where(keep_mask, global_value, blended)
    return aggregated


def _many_masked_updates(num_updates=32):
    """A wide masked-update batch that makes the per-update loop hurt."""
    model = _lenet()
    structure = ModelStructure.from_model(model)
    global_weights = model.get_weights()
    rng = np.random.default_rng(7)
    updates = []
    for client_id in range(num_updates):
        mask = ModelMask.random(
            model, {layer.name: 0.5 for layer in model.neuron_layers()},
            rng)
        weights = {name: (value + rng.normal(0, 0.01, value.shape)
                          ).astype(value.dtype)
                   for name, value in global_weights.items()}
        updates.append(ClientUpdate(client_id=client_id,
                                    client_name=f"c{client_id}",
                                    weights=weights, num_samples=100,
                                    train_loss=0.0, mask=mask))
    return global_weights, updates, structure


def _per_update_exact_aggregate_partial(global_weights, updates, structure):
    """Per-update Python loop over the *same* exact-summation algorithm:
    fold every update alone and merge the partials.  Level sums add
    exactly, so this is bit-identical to the vectorized
    ``aggregate_partial`` — it is the one-client-per-shard degenerate
    topology, and the timing baseline the vectorized fold must beat."""
    from repro.fl.aggregation import (finalize_partials, fold_updates,
                                      sample_count_weights)

    weights = sample_count_weights(updates)
    partials = [fold_updates([update], [weight], structure, partial=True)
                for update, weight in zip(updates, weights)]
    return finalize_partials(global_weights, partials, structure=structure)


def test_partial_aggregation_vectorization_guard():
    """The vectorized aggregate_partial must match the per-update
    exact fold bit for bit (partition invariance), agree with the plain
    float-sum loop numerically, and must not be slower than per-update
    Python looping of the same algorithm."""
    global_weights, updates, structure = _many_masked_updates()
    plain = _reference_aggregate_partial(global_weights, updates,
                                         structure)
    looped = _per_update_exact_aggregate_partial(global_weights, updates,
                                                 structure)
    actual = aggregate_partial(global_weights, updates, structure)
    assert plain.keys() == actual.keys()
    for name in plain:
        np.testing.assert_allclose(actual[name], plain[name],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(actual[name], looped[name],
                                      err_msg=name)
    # Timing guard: best-of-3 each, generous 1.5x margin so the
    # assertion stays robust on loaded CI machines while still catching
    # a regression back to per-update Python looping.
    reference_s = min(_timeit(lambda: _per_update_exact_aggregate_partial(
        global_weights, updates, structure)) for _ in range(3))
    vectorized_s = min(_timeit(lambda: aggregate_partial(
        global_weights, updates, structure)) for _ in range(3))
    print(f"\naggregate_partial ({len(updates)} masked updates): "
          f"per-update exact loop {reference_s * 1000:.1f} ms, vectorized "
          f"{vectorized_s * 1000:.1f} ms "
          f"({reference_s / vectorized_s:.2f}x)")
    assert vectorized_s <= reference_s * 1.5


def _timeit(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_bench_soft_training_selection(benchmark):
    model = _lenet()
    fractions = {layer.name: 0.25 for layer in model.neuron_layers()}
    selector = SoftTrainingSelector(model, fractions, top_share=0.1,
                                    rng=np.random.default_rng(0))
    contributions = {layer.name: np.random.default_rng(1).random(
        layer.num_neurons) for layer in model.neuron_layers()}
    benchmark(lambda: selector.select(contributions))


def test_bench_cost_model_estimate(benchmark):
    model = _lenet()
    cost_model = TrainingCostModel(model, (1, 28, 28),
                                   samples_per_cycle=10_000)
    fractions = {layer.name: 0.4 for layer in model.neuron_layers()}
    benchmark(lambda: cost_model.estimate(JETSON_NANO_CPU, fractions))


_NUM_PAYLOAD_CLIENTS = 6

_BENCH_SPEC = SyntheticImageSpec(
    name="bench", image_shape=(1, 8, 8), num_classes=4, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)


def _bench_model():
    rng = np.random.default_rng(3)
    return Sequential([
        Flatten(name="flatten"),
        Dense(64, 16, rng=rng, name="fc1"),
        ReLU(name="relu1"),
        Dense(16, 4, rng=rng, name="output"),
    ], name="bench-mlp")


# --------------------------------------------------------------------- #
# machine-readable substrate report (BENCH_substrate.json)
# --------------------------------------------------------------------- #

def _payload_fleet(samples_per_client):
    """A plain fleet for dispatch-size accounting."""
    num_clients = _NUM_PAYLOAD_CLIENTS
    pool = make_classification_images(
        samples_per_client * num_clients + 40, _BENCH_SPEC,
        np.random.default_rng(0))
    device = DeviceProfile(name="bench-node", compute_gflops=50.0,
                           memory_bandwidth_gbps=10.0,
                           network_bandwidth_mbps=100.0,
                           memory_capacity_mb=1024.0)
    config = ClientConfig(batch_size=10, local_epochs=1, learning_rate=0.1)
    clients = [
        FLClient(client_id=index,
                 dataset=pool.subset(np.arange(
                     index * samples_per_client,
                     (index + 1) * samples_per_client)),
                 device=device, model_factory=_bench_model, config=config)
        for index in range(num_clients)
    ]
    server = FLServer(_bench_model,
                      test_dataset=pool.subset(
                          np.arange(samples_per_client * num_clients,
                                    len(pool))))
    return FederatedSimulation(clients, server, input_shape=(1, 8, 8))


def _dispatch_payloads(samples_per_client, include_sharded=True):
    """Warm per-cycle dispatch bytes of the distributed-capable backends.

    Measures the ``fold`` frames of the ``persistent`` backend (forked
    slots) and optionally a 2-shard ``sharded`` socket fleet (the wire
    bytes a multi-host deployment would put on the network each cycle —
    byte-identical to the forked slots' by design).  ``full_snapshot`` is
    the raw weights two slots receive every cycle: one copy each.
    """
    from repro.fl.executor import TrainingJob

    sim = _payload_fleet(samples_per_client)
    sim.set_backend("persistent", max_workers=2)
    weights = sim.server.get_global_weights()
    jobs = [TrainingJob(index=index, weights=weights)
            for index in sim.client_indices()]
    structure = sim.server.structure
    try:
        cold = sim.backend.dispatch_payload_bytes(sim.clients, jobs,
                                                  structure)
        # Ships the specs; replicas become resident.
        sim.train_and_aggregate(sim.client_indices())
        warm = sim.backend.dispatch_payload_bytes(sim.clients, jobs,
                                                  structure)
    finally:
        sim.close()
    payloads = {"persistent_cold": cold, "persistent_warm": warm,
                "full_snapshot": 2 * sum(array.nbytes
                                         for array in weights.values())}
    if not include_sharded:
        return payloads

    sharded_sim = _payload_fleet(samples_per_client)
    sharded_sim.set_backend("sharded", max_workers=2)
    sharded_weights = sharded_sim.server.get_global_weights()
    sharded_jobs = [TrainingJob(index=index, weights=sharded_weights)
                    for index in sharded_sim.client_indices()]
    sharded_structure = sharded_sim.server.structure
    try:
        sharded_cold = sharded_sim.backend.dispatch_payload_bytes(
            sharded_sim.clients, sharded_jobs, sharded_structure)
        sharded_sim.train_and_aggregate(sharded_sim.client_indices())
        sharded_warm = sharded_sim.backend.dispatch_payload_bytes(
            sharded_sim.clients, sharded_jobs, sharded_structure)
    finally:
        sharded_sim.close()
    payloads.update({"sharded_cold": sharded_cold,
                     "sharded_warm": sharded_warm})
    return payloads


# --------------------------------------------------------------------- #
# stacked training: clients/sec of one stacked pass vs. the classic loop
# --------------------------------------------------------------------- #

#: MLP row: 64 homogeneous clients of the bench MLP at batch 5.
_FUSION_CLIENTS = 64
_FUSION_BATCH_SIZE = 5
_FUSION_SAMPLES = 40
#: LeNet row: the Fig. 5 model at the ``fast`` scale (width 0.4, MNIST
#: shape, batch 32), two steps a client, at two cluster sizes.
_LENET_CLUSTERS = (16, 64)
_LENET_SAMPLES = 64
_LENET_BATCH_SIZE = 32


def _fusion_fleet(num_clients, samples, spec, model_factory, batch_size):
    """A homogeneous plain-FLClient fleet (every client stacks)."""
    pool = make_classification_images(samples * num_clients, spec,
                                      np.random.default_rng(0))
    device = DeviceProfile(name="bench-node", compute_gflops=50.0,
                           memory_bandwidth_gbps=10.0,
                           network_bandwidth_mbps=100.0,
                           memory_capacity_mb=1024.0)
    config = ClientConfig(batch_size=batch_size, local_epochs=1,
                          learning_rate=0.05)
    return [FLClient(client_id=index,
                     dataset=pool.subset(np.arange(index * samples,
                                                   (index + 1) * samples)),
                     device=device, model_factory=model_factory,
                     config=config, seed=index)
            for index in range(num_clients)]


def _fusion_rates(make_fleet, model_factory):
    """Classic vs stacked clients/s of one fleet, plus the peak bytes
    NumPy allocates during one stacked pass.

    Times the two routes in-process (no backend in between) so the
    comparison isolates the training math from pool scheduling; asserts
    bit-identity on the same cycle index first.
    """
    import tracemalloc
    from types import SimpleNamespace

    from repro.fl.fusion import cluster_signature, train_cluster

    weights = model_factory().get_weights()
    classic_fleet, stacked_fleet = make_fleet(), make_fleet()
    members = [(client, SimpleNamespace(weights_ref=0, mask=None,
                                        local_epochs=None, base_cycle=0))
               for client in stacked_fleet]
    signatures = {cluster_signature(client, SimpleNamespace(jobs=[job]),
                                    [weights])
                  for client, job in members}
    assert len(signatures) == 1 and None not in signatures

    def classic_cycle():
        return [client.local_train(weights) for client in classic_fleet]

    def stacked_cycle():
        return train_cluster(members, [weights])

    # One warm-up cycle each, then bit-identity on the *same* cycle
    # index (both fleets have now trained twice from identical seeds).
    classic_cycle(), stacked_cycle()
    for expected, actual in zip(classic_cycle(), stacked_cycle()):
        assert expected.train_loss == actual.train_loss
        for key in expected.weights:
            np.testing.assert_array_equal(expected.weights[key],
                                          actual.weights[key])
    tracemalloc.start()
    stacked_cycle()
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # Interleaved best-of-3 so CPU frequency/cache drift between the
    # two measurements hits both routes equally.
    classic_times, stacked_times = [], []
    for _ in range(3):
        classic_times.append(_timeit(classic_cycle))
        stacked_times.append(_timeit(stacked_cycle))
    count = len(classic_fleet)
    classic_rate = count / min(classic_times)
    stacked_rate = count / min(stacked_times)
    return {"clients_per_second": {"classic": classic_rate,
                                   "stacked": stacked_rate},
            "speedup": stacked_rate / classic_rate,
            "stacked_peak_bytes": peak_bytes}


def _fusion_sweep_report():
    """Stacked training against the per-client loop, in-process.

    MLP row: the stacking claim (>=2x clients/sec at batch 5, where the
    per-client Python/BLAS call overhead dominates — the regime stacking
    exists for).  LeNet row: the Fig. 5 model at 16 and 64 clients
    (Fig. 5's own clusters hold 2-3; README "Stacked multi-client
    training" has them end to end); recorded, not asserted (a LeNet
    step is GEMM-bound), with the peak bytes one stacked pass
    allocates — the row-unfolded conv buffers grow with the cluster,
    which is why clusters are cut at 64.
    """
    mlp = _fusion_rates(
        lambda: _fusion_fleet(_FUSION_CLIENTS, _FUSION_SAMPLES, _BENCH_SPEC,
                              _bench_model, _FUSION_BATCH_SIZE),
        _bench_model)
    print(f"\nstacked MLP ({_FUSION_CLIENTS} clients, batch "
          f"{_FUSION_BATCH_SIZE}): classic "
          f"{mlp['clients_per_second']['classic']:.0f} clients/s, stacked "
          f"{mlp['clients_per_second']['stacked']:.0f} clients/s "
          f"({mlp['speedup']:.2f}x)")
    # The acceptance claim: >=2x clients/sec from one stacked pass.
    assert mlp["speedup"] >= 2
    lenet = {}
    for num_clients in _LENET_CLUSTERS:
        lenet[str(num_clients)] = row = _fusion_rates(
            lambda: _fusion_fleet(num_clients, _LENET_SAMPLES,
                                  DATASET_SPECS["mnist"], _lenet,
                                  _LENET_BATCH_SIZE), _lenet)
        print(f"stacked LeNet w0.4 ({num_clients} clients, batch "
              f"{_LENET_BATCH_SIZE}): classic "
              f"{row['clients_per_second']['classic']:.0f} clients/s, "
              f"stacked {row['clients_per_second']['stacked']:.0f} "
              f"clients/s ({row['speedup']:.2f}x), peak "
              f"{row['stacked_peak_bytes'] / 2 ** 20:.1f} MiB")
    return {
        "mlp": dict(mlp, num_clients=_FUSION_CLIENTS,
                    batch_size=_FUSION_BATCH_SIZE,
                    samples_per_client=_FUSION_SAMPLES),
        "lenet": dict(lenet, model="lenet w0.4 (1x28x28)",
                      batch_size=_LENET_BATCH_SIZE,
                      samples_per_client=_LENET_SAMPLES),
    }


# --------------------------------------------------------------------- #
# virtual fleets: upstream bytes vs. logical fleet size
# --------------------------------------------------------------------- #

#: Virtual-client counts of the scale sweep: every shard folds in-shard,
#: measured up to 10^6 logical clients (a minute or two on 2 vCPUs now
#: that a shard trains a chunk as one stacked pass) to show the
#: byte-flatness instead of projecting it.
_VIRTUAL_SWEEP = (2000, 10_000, 100_000, 1_000_000)


def _virtual_fleet(num_clients):
    device = DeviceProfile(name="bench-node", compute_gflops=50.0,
                           memory_bandwidth_gbps=10.0,
                           network_bandwidth_mbps=100.0,
                           memory_capacity_mb=1024.0)
    return VirtualFleet(
        num_clients=num_clients,
        dataset_factory=VirtualClientDatasets(_BENCH_SPEC,
                                              samples_per_client=8, seed=5),
        device=device, model_factory=_bench_model,
        config=ClientConfig(batch_size=8, local_epochs=1, learning_rate=0.1),
        seed=9)


def _virtual_cycle_stats(num_clients):
    """Upstream bytes + wall-clock of two cycles of one fleet (2 shards).

    The 4-client warm-up spawns the shards outside the timing but shares
    no chunk with the measured fleet, so ``cycle_seconds`` builds every
    chunk; ``cycle_seconds_warm``, the same fleet's second cycle, reads
    them from the shards' chunk memos — all of them while a shard's
    range fits the memo budget, few past it (10^5 and 10^6).
    """
    sim = _payload_fleet(samples_per_client=8)
    sim.set_backend("sharded", max_workers=2)
    fleet = _virtual_fleet(num_clients)
    try:
        sim.run_virtual_cycle(_virtual_fleet(4))  # spawn shards outside
        seconds = []
        for _ in range(2):
            start = time.perf_counter()
            loss, count = sim.run_virtual_cycle(fleet)
            seconds.append(time.perf_counter() - start)
            assert count == num_clients and np.isfinite(loss)
        upstream = sim.backend.last_reply_bytes
    finally:
        sim.close()
    return {"upstream_bytes": upstream, "cycle_seconds": seconds[0],
            "cycle_seconds_warm": seconds[1]}


def _virtual_sweep_report():
    """Measure and assert the hierarchical-aggregation claim:
    shard->parent bytes are independent of the logical fleet size."""
    sweep = {str(n): _virtual_cycle_stats(n) for n in _VIRTUAL_SWEEP}
    smallest, *larger = (sweep[str(n)]["upstream_bytes"]
                         for n in _VIRTUAL_SWEEP)
    largest = _VIRTUAL_SWEEP[-1]
    print(f"\nvirtual fleets (2 shards): upstream {smallest}B@2000 = "
          f"{larger[-1]}B@{largest} in "
          f"{sweep[str(largest)]['cycle_seconds']:.1f} s, then "
          f"{sweep[str(largest)]['cycle_seconds_warm']:.1f} s")
    # Upstream bytes are fleet-size independent, measured all the way to
    # 10^6 logical clients: no per-client term, only the pickled width
    # of each shard's two client counts (a count above 65 535 takes 2
    # more bytes — 8 bytes over 2 shards at 10^6).
    assert all(0 <= upstream - smallest <= 8 for upstream in larger)
    assert sweep["100000"]["upstream_bytes"] == smallest
    return {
        "num_shards": 2,
        "samples_per_client": 8,
        "sweep": {"hierarchical": sweep},
        "hierarchical_bytes_independent_of_fleet_size": True,
    }


# --------------------------------------------------------------------- #
# dataset synthesis: what a non-virtual workload's set-up pays
# --------------------------------------------------------------------- #

#: ``fleet32_*``'s pool (32 x 80 + 250 test samples) — the one big
#: ``make_classification_images`` call inside three e2e workloads'
#: ``setup_s``.
_SYNTHESIS_SAMPLES = 2810


def _dataset_synthesis_report():
    """Median wall-clock of one set-up-sized generator call.

    A guard for the single-dataset (C = 1) case of the stacked recipe:
    it must draw straight into its output, not through chunk staging
    buffers.  Recorded, not asserted — a timing is host noise in CI.
    """
    spec = DATASET_SPECS["mnist"]
    times = [_timeit(lambda: make_classification_images(
        _SYNTHESIS_SAMPLES, spec, np.random.default_rng(0)))
        for _ in range(5)]
    median_ms = float(np.median(times)) * 1e3
    print(f"\ndataset synthesis ({_SYNTHESIS_SAMPLES} x {spec.name}): "
          f"{median_ms:.1f} ms")
    return {"spec": spec.name, "num_samples": _SYNTHESIS_SAMPLES,
            "dataset_synthesis_ms": median_ms}


#: (model, input shape, width multiplier): LeNet at the ``fast`` scale of
#: ``fig5`` and at full width, AlexNet and ResNet small and mid-sized.
_KERNEL_SHAPES = (("lenet", (1, 28, 28), 0.4), ("lenet", (1, 28, 28), 1.0),
                  ("alexnet", (3, 32, 32), 0.1), ("alexnet", (3, 32, 32), 0.5),
                  ("resnet", (3, 32, 32), 0.08), ("resnet", (3, 32, 32), 0.5))
_KERNEL_REPEATS = 10


def _nn_kernels_report(smoke):
    """:func:`_measure_nn_kernels` in a fresh interpreter with BLAS
    threads pinned to 1, the setting ``benchmarks/e2e`` measures under —
    on a multi-threaded BLAS the skinny conv GEMMs time the thread pool,
    not the kernel."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [here, root, os.path.join(root, "src")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, bench_substrate; print(json.dumps("
         f"bench_substrate._measure_nn_kernels({smoke!r})))"],
        env=env, check=True, stdout=subprocess.PIPE, text=True)
    *progress, report = done.stdout.splitlines()
    print("\n".join(progress))
    return json.loads(report)


def _conv_gradient_shapes(model, batch):
    """``(out_c, C*kw, oh*B*ow)`` — one kernel row's weight-gradient GEMM
    — of every convolution of ``model`` after one forward of ``batch``."""
    model.forward(batch)
    shapes = set()
    for layer in iter_leaf_layers(model.layers):
        if isinstance(layer, Conv2D):
            channels, kw, _, _, batch_size, out_w = layer._cols.shape
            out_h = layer.output_shape(layer._input_shape[-3:])[1]
            shapes.add((layer.out_channels, channels * kw,
                        out_h * batch_size * out_w))
    return sorted(shapes)


def _weight_gradient_orientations(shapes, rng):
    """Both spellings of one kernel row's float32 conv weight-gradient
    GEMM, per shape: ``grad_mat @ slab.T`` and ``(slab @ grad_mat.T).T``
    (the one ``conv.py`` uses)."""
    rows = []
    for out_c, patch, positions in shapes:
        grad_mat = rng.normal(size=(out_c, positions)).astype(np.float32)
        cols = rng.normal(size=(patch, positions)).astype(np.float32)
        rows.append({
            "out_channels": out_c, "slab_rows": patch,
            "positions": positions,
            "grad_mat_at_cols_T_ms": 1e3 * min(
                _timeit(lambda: grad_mat @ cols.T)
                for _ in range(_KERNEL_REPEATS)),
            "cols_at_grad_mat_T_ms": 1e3 * min(
                _timeit(lambda: (cols @ grad_mat.T).T)
                for _ in range(_KERNEL_REPEATS))})
    return rows


def _measure_nn_kernels(smoke):
    """Train-step and eval-forward wall-clock of the conv/pool kernels in
    float32 — what the substrate trains in — next to the channel-major
    conv kernel the row-unfolded one replaced, in float32
    (``float32_channel_major``), and the same kernels and the im2col
    reference kernels (``tests/nn/reference_kernels.py``, which also run
    the full backward the old ``train_step`` ran) on a float64 copy of the
    model (``tests/nn/dtypes.py``), both orientations of one kernel row's
    conv weight-gradient GEMM on every conv shape of those models, plus
    ``server.evaluate()`` first call vs warm on the ``fig5 --scale fast``
    fleet.

    Recorded, not asserted: the end-to-end claim is judged by
    ``benchmarks/e2e`` pairs; this table says which layer shapes it comes
    from.  Minimum of ``_KERNEL_REPEATS`` calls, batch 32 to train and
    64 (``Sequential.predict``'s chunk) to evaluate.  ``smoke`` skips the
    two width-0.5 shapes (a minute and a half of the section's two).
    """
    from repro.experiments.common import (SCALES, ExperimentSetting,
                                          make_simulation_factory)
    from repro.nn.models import build_model
    from tests.nn.dtypes import as_float64
    from tests.nn.reference_kernels import use_reference_kernels

    rng = np.random.default_rng(1)
    rows = []
    gradient_shapes = set()
    for name, shape, width in _KERNEL_SHAPES:
        if smoke and width == 0.5:
            continue
        train_x = rng.normal(size=(32,) + shape)
        train_y = rng.integers(0, 10, 32)
        eval_x = rng.normal(size=(64,) + shape)
        row = {"model": name, "width_multiplier": width}
        losses = {}
        for variant in ("float32", "float32_channel_major", "float64",
                        "float64_reference"):
            model = build_model(name, shape, 10, width_multiplier=width,
                                rng=np.random.default_rng(0))
            dtype = np.float32
            if variant.startswith("float64"):
                as_float64(model)
                dtype = np.float64
            if variant == "float64_reference":
                use_reference_kernels(model.layers)
            if variant == "float32_channel_major":
                use_reference_kernels(model.layers, channel_major=True)
            batch_x, batch_eval = train_x.astype(dtype), eval_x.astype(dtype)
            loss_fn = SoftmaxCrossEntropy()
            optimizer = SGD(model.parameters(), lr=0.05)
            step_losses = []
            step_s = min(_timeit(lambda: step_losses.append(model.train_step(
                batch_x, train_y, loss_fn, optimizer)))
                for _ in range(_KERNEL_REPEATS))
            model.eval()
            eval_s = min(_timeit(lambda: model.forward(batch_eval))
                         for _ in range(_KERNEL_REPEATS))
            losses[variant] = step_losses
            row[variant] = {"train_step_ms": step_s * 1e3,
                            "eval_forward_ms": eval_s * 1e3}
            if variant == "float32":
                gradient_shapes.update(_conv_gradient_shapes(model, batch_x))
        # Same arithmetic, different GEMM blocking: the float64 losses
        # agree far beyond what a timing table needs, and a wrong kernel
        # would not.  Float32 is held to the first step only — ten steps
        # at lr 0.05 on noise diverge on the wide models, and a diverging
        # trajectory amplifies the last digit.
        assert abs(losses["float64"][-1]
                   - losses["float64_reference"][-1]) <= 1e-9
        assert abs(losses["float32"][0] / losses["float64"][0] - 1) <= 1e-4
        assert abs(losses["float32_channel_major"][0]
                   / losses["float32"][0] - 1) <= 1e-4
        row["speedup_float32_vs_float64"] = {
            key: row["float64"][key] / row["float32"][key]
            for key in ("train_step_ms", "eval_forward_ms")}
        row["speedup_float32_vs_float64_reference"] = {
            key: row["float64_reference"][key] / row["float32"][key]
            for key in ("train_step_ms", "eval_forward_ms")}
        row["speedup_float32_vs_float32_channel_major"] = {
            key: row["float32_channel_major"][key] / row["float32"][key]
            for key in ("train_step_ms", "eval_forward_ms")}
        print(f"\nnn kernels {name} w{width}: train step reference "
              f"{row['float64_reference']['train_step_ms']:.1f} -> float64 "
              f"{row['float64']['train_step_ms']:.1f} -> float32 "
              f"channel-major "
              f"{row['float32_channel_major']['train_step_ms']:.1f} -> "
              f"float32 {row['float32']['train_step_ms']:.1f} ms, eval "
              f"forward {row['float64_reference']['eval_forward_ms']:.1f} "
              f"-> {row['float64']['eval_forward_ms']:.1f} -> "
              f"{row['float32_channel_major']['eval_forward_ms']:.1f} -> "
              f"{row['float32']['eval_forward_ms']:.1f} ms")
        rows.append(row)
    orientations = _weight_gradient_orientations(sorted(gradient_shapes),
                                                 rng)

    factory, _ = make_simulation_factory(
        ExperimentSetting("mnist", "lenet", num_capable=2, num_stragglers=2,
                          seed=0), SCALES["fast"])
    with factory() as sim:
        calls = [_timeit(sim.server.evaluate) for _ in range(12)]
    return {
        "batch_size": {"train": 32, "eval": 64},
        "repeats": _KERNEL_REPEATS,
        "models": rows,
        "weight_gradient_gemm_float32": orientations,
        "server_evaluate_ms": {
            "test_images": SCALES["fast"].num_test,
            "first_call": calls[0] * 1e3,
            "second_call": calls[1] * 1e3,
            "warm_median": float(np.median(calls[2:])) * 1e3},
    }


def _transport_ping_report(num_pings=50, num_nagle_pings=25):
    """Median ping round-trip against a live :class:`ShardServer`, with
    TCP_NODELAY on (the transport's default) and explicitly off for the
    before/after comparison.

    Recorded, not asserted: small-frame RTT is scheduler noise on a busy
    CI box — the record is here so Nagle regressions are visible in the
    report, not to gate merges on microseconds.
    """
    import threading

    from repro.fl.transport import ShardServer, connect_to_shard

    server = ShardServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def median_rtt_s(channel, count):
        rtts = []
        for _ in range(count):
            start = time.perf_counter()
            channel.send(("ping", None))
            kind, _ = channel.recv()
            rtts.append(time.perf_counter() - start)
            assert kind == "pong"
        return float(np.median(rtts))

    try:
        channel = connect_to_shard(server.address, timeout=10)
        try:
            median_rtt_s(channel, 5)  # warm-up
            nodelay = median_rtt_s(channel, num_pings)
            channel.set_tcp_nodelay(False)
            nagle = median_rtt_s(channel, num_nagle_pings)
        finally:
            channel.send(("shutdown", None))
            channel.close()
    finally:
        thread.join(timeout=15)
    assert not thread.is_alive()
    print(f"\ntransport ping RTT: nodelay {nodelay * 1e6:.0f}us "
          f"(default), nagle {nagle * 1e6:.0f}us")
    return {
        "ping_rtt_s": {"tcp_nodelay": nodelay, "nagle": nagle},
        "num_pings": num_pings,
        "tcp_nodelay_default": True,
    }


def test_substrate_report_json(results_dir, bench_scale):
    """Write BENCH_substrate.json and assert the dispatch-scaling
    claims."""
    payloads = {"small": _dispatch_payloads(20),
                "large": _dispatch_payloads(200, include_sharded=False)}
    report = {
        "num_clients": _NUM_PAYLOAD_CLIENTS,
        "num_shards": 2,
        "dispatch_payload_bytes": payloads,
        "dataset_synthesis": _dataset_synthesis_report(),
        "fusion": _fusion_sweep_report(),
        "nn_kernels": _nn_kernels_report(bench_scale == "smoke"),
        "transport": _transport_ping_report(),
        "virtual_fleets": _virtual_sweep_report(),
    }
    path = os.path.join(results_dir, "BENCH_substrate.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    full = payloads["small"]["full_snapshot"]
    warm = payloads["small"]["persistent_warm"]
    print(f"\nwritten {path}: full snapshot {full}B, warm dispatch "
          f"{warm}B, cold dispatch "
          f"{payloads['small']['persistent_cold']}B")
    # Warm resident dispatch ships weights + RNG digests only: one raw
    # snapshot per slot, and the payload must not grow with the dataset
    # (the digest values encode to ±a few bytes, hence the 1 % tolerance
    # on a 10x dataset-size increase) …
    assert warm >= full
    assert (abs(payloads["large"]["persistent_warm"] - warm)
            <= 0.01 * warm)
    # … the 2-shard socket fleet's wire format is byte-identical to
    # the forked slots' …
    assert payloads["small"]["sharded_warm"] == warm
    # … and the cold dispatch, which ships the specs (datasets
    # included), is strictly larger and grows with the dataset.
    assert (payloads["large"]["persistent_cold"]
            > payloads["small"]["persistent_cold"])
    for size in ("small", "large"):
        assert (payloads[size]["persistent_warm"]
                < payloads[size]["persistent_cold"])
