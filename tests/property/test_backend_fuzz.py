"""Property-based determinism fuzzing of the execution backends.

A seeded fuzzer generates random interleavings of training cycles and
fleet mutations (``add_client``, ``set_client_device``, client-config
changes) and replays the identical script on every execution backend.
The property under test is the substrate's trust anchor: *any* sequence
of cycles and mutations produces bit-identical losses, client RNG
streams and model weights on the serial, persistent and sharded
backends.

The scripts are deterministic functions of their seed, so a failure
reproduces exactly from the test id.
"""

import numpy as np
import pytest

from repro.fl import ClientConfig, FLClient, fusion
from repro.nn import ModelMask

from ..conftest import (FAST_DEVICE, make_tiny_dataset, make_tiny_model,
                        make_tiny_simulation)

FUZZ_SEEDS = (0, 1, 2)
#: Backend configurations replayed against the serial reference: both
#: worker-resident backends.  Each stacks the co-placed clients a script
#: leaves eligible and trains the rest one by one; the route may not be
#: visible in the numerics (``test_scripts_take_both_training_routes``).
BACKENDS_UNDER_TEST = (
    ("persistent", {}),
    ("sharded", {}),
)

BACKEND_IDS = [name if not kwargs else
               f"{name}-{'-'.join(f'{k}={v}' for k, v in kwargs.items())}"
               for name, kwargs in BACKENDS_UNDER_TEST]

#: Serial reference fingerprints, computed once per seed.
_SERIAL_CACHE = {}


def generate_script(seed, num_ops=8):
    """A random but seed-deterministic interleaving of fleet operations.

    Returns a list of op tuples; the initial fleet has 3 clients and
    ``add`` ops grow it.  The final op is always a full-fleet cycle so
    every replica's end state is exercised.
    """
    rng = np.random.default_rng(seed)
    ops = []
    num_clients = 3
    for _ in range(num_ops):
        roll = rng.random()
        if roll < 0.5:
            size = int(rng.integers(1, num_clients + 1))
            indices = sorted(int(index) for index in rng.choice(
                num_clients, size=size, replace=False))
            ops.append(("cycle", indices))
        elif roll < 0.65:
            ops.append(("add", int(rng.integers(0, 10_000))))
            num_clients += 1
        elif roll < 0.8:
            ops.append(("device", int(rng.integers(0, num_clients)),
                        float(rng.uniform(0.3, 2.0))))
        else:
            ops.append(("config", int(rng.integers(0, num_clients)),
                        int(rng.integers(1, 3)),
                        (10, 20)[int(rng.integers(0, 2))]))
    ops.append(("cycle", list(range(num_clients))))
    return ops


def replay(ops, backend_name, backend_kwargs=None):
    """Run one script on one backend; return its full fingerprint."""
    sim = make_tiny_simulation()
    if backend_name != "serial":
        kwargs = dict(backend_kwargs or {})
        if "shards" not in kwargs:  # one shard per explicit address
            kwargs.setdefault("max_workers", 2)
        sim.set_backend(backend_name, **kwargs)
    losses = []
    try:
        for op in ops:
            if op[0] == "cycle":
                updates = sim.train_clients(op[1])
                losses.extend(update.train_loss for update in updates)
            elif op[0] == "add":
                index = sim.num_clients()
                sim.add_client(FLClient(
                    client_id=index,
                    dataset=make_tiny_dataset(40, seed=op[1]),
                    device=FAST_DEVICE.scaled(name=f"joiner-{index}"),
                    model_factory=make_tiny_model,
                    config=ClientConfig(batch_size=20)))
            elif op[0] == "device":
                _, index, factor = op
                sim.set_client_device(index, FAST_DEVICE.scaled(
                    compute=factor, name=f"swapped-{index}"))
            elif op[0] == "config":
                _, index, epochs, batch_size = op
                sim.client(index).config = ClientConfig(
                    batch_size=batch_size, local_epochs=epochs,
                    learning_rate=0.1)
        rng_states = [client.rng.bit_generator.state["state"]
                      for client in sim.clients]
        weights = [client.model.get_weights() for client in sim.clients]
    finally:
        sim.close()
    return {"losses": losses, "rng_states": rng_states, "weights": weights}


def _serial_fingerprint(seed):
    if seed not in _SERIAL_CACHE:
        _SERIAL_CACHE[seed] = replay(generate_script(seed), "serial")
    return _SERIAL_CACHE[seed]


@pytest.mark.parametrize("backend_config", BACKENDS_UNDER_TEST,
                         ids=BACKEND_IDS)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_interleavings_bit_identical_to_serial(seed, backend_config):
    backend_name, backend_kwargs = backend_config
    ops = generate_script(seed)
    reference = _serial_fingerprint(seed)
    actual = replay(ops, backend_name, backend_kwargs)
    assert actual["losses"] == reference["losses"]
    assert actual["rng_states"] == reference["rng_states"]
    assert len(actual["weights"]) == len(reference["weights"])
    for expected, got in zip(reference["weights"], actual["weights"]):
        assert expected.keys() == got.keys()
        for key in expected:
            np.testing.assert_array_equal(expected[key], got[key])


#: Aggregation-topology axis: the same scripts replayed through
#: ``train_and_aggregate`` with in-shard hierarchical folding must match
#: the flat serial reference bit for bit — losses, client RNG streams and
#: the *global* model (client replicas stay shard-side under the wire
#: backends, so they are deliberately not part of this fingerprint).
AGGREGATION_BACKENDS = (
    ("serial", {}),
    ("persistent", {}),
    ("sharded", {}),
)

AGGREGATION_IDS = [name if not kwargs else
                   f"{name}-{'-'.join(f'{k}={v}' for k, v in kwargs.items())}"
                   for name, kwargs in AGGREGATION_BACKENDS]

_SERIAL_AGGREGATED_CACHE = {}


def replay_aggregated(ops, backend_name, aggregation, backend_kwargs=None,
                      mask_seed=0):
    """Replay one script through the server-aggregation path.

    Roughly half the cycles aggregate neuron-masked partial updates; the
    mask stream is seed-deterministic and independent of the backend, so
    every replay of a script sees identical masks.
    """
    sim = make_tiny_simulation()
    sim.set_backend(backend_name, max_workers=2, aggregation=aggregation,
                    **(backend_kwargs or {}))
    mask_rng = np.random.default_rng(mask_seed)
    losses = []
    try:
        for cycle, op in enumerate(ops):
            if op[0] == "cycle":
                masks = None
                if mask_rng.random() < 0.5:
                    masks = {index: ModelMask.random(
                                 sim.server.global_model,
                                 {"fc1": 0.5, "fc2": 0.5}, rng=mask_rng)
                             for index in op[1]
                             if mask_rng.random() < 0.7} or None
                summaries = sim.train_and_aggregate(
                    op[1], masks=masks, base_cycle=cycle,
                    partial=masks is not None)
                losses.extend(summary.train_loss for summary in summaries)
            elif op[0] == "add":
                index = sim.num_clients()
                sim.add_client(FLClient(
                    client_id=index,
                    dataset=make_tiny_dataset(40, seed=op[1]),
                    device=FAST_DEVICE.scaled(name=f"joiner-{index}"),
                    model_factory=make_tiny_model,
                    config=ClientConfig(batch_size=20)))
            elif op[0] == "device":
                _, index, factor = op
                sim.set_client_device(index, FAST_DEVICE.scaled(
                    compute=factor, name=f"swapped-{index}"))
            elif op[0] == "config":
                _, index, epochs, batch_size = op
                sim.client(index).config = ClientConfig(
                    batch_size=batch_size, local_epochs=epochs,
                    learning_rate=0.1)
        rng_states = [client.rng.bit_generator.state["state"]
                      for client in sim.clients]
        global_weights = sim.server.get_global_weights()
    finally:
        sim.close()
    return {"losses": losses, "rng_states": rng_states,
            "global_weights": global_weights}


def _serial_aggregated_fingerprint(seed):
    if seed not in _SERIAL_AGGREGATED_CACHE:
        _SERIAL_AGGREGATED_CACHE[seed] = replay_aggregated(
            generate_script(seed), "serial", "flat", mask_seed=seed)
    return _SERIAL_AGGREGATED_CACHE[seed]


@pytest.mark.parametrize("backend_config", AGGREGATION_BACKENDS,
                         ids=AGGREGATION_IDS)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_hierarchical_aggregation_bit_identical_to_flat_serial(
        seed, backend_config):
    backend_name, backend_kwargs = backend_config
    ops = generate_script(seed)
    reference = _serial_aggregated_fingerprint(seed)
    actual = replay_aggregated(ops, backend_name, "hierarchical",
                               backend_kwargs, mask_seed=seed)
    assert actual["losses"] == reference["losses"]
    assert actual["rng_states"] == reference["rng_states"]
    expected = reference["global_weights"]
    assert expected.keys() == actual["global_weights"].keys()
    for key in expected:
        np.testing.assert_array_equal(expected[key],
                                      actual["global_weights"][key],
                                      err_msg=key)


def test_scripts_take_both_training_routes(monkeypatch, tmp_path):
    """The scripts exercise the stacked route *and* the classic one on
    the resident backends: the workers (forked after the spies are set)
    append every route they take to one file."""
    log = tmp_path / "routes.log"
    stacked, classic = fusion.train_stacked, FLClient.local_train

    def record(route):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(route + "\n")

    def logged_stacked(*args, **kwargs):
        record("stacked")
        return stacked(*args, **kwargs)

    def logged_classic(*args, **kwargs):
        record("classic")
        return classic(*args, **kwargs)

    monkeypatch.setattr(fusion, "train_stacked", logged_stacked)
    monkeypatch.setattr(FLClient, "local_train", logged_classic)
    for seed in FUZZ_SEEDS:
        replay(generate_script(seed), "persistent")
        replay_aggregated(generate_script(seed), "persistent",
                          "hierarchical", mask_seed=seed)
    routes = log.read_text(encoding="utf-8").split()
    assert routes.count("stacked") > 0
    assert routes.count("classic") > 0


def test_scripts_cover_every_op_kind():
    """The fuzz seeds jointly exercise cycles and all three mutations."""
    kinds = {op[0] for seed in FUZZ_SEEDS
             for op in generate_script(seed)}
    assert kinds == {"cycle", "add", "device", "config"}


def test_script_generation_is_deterministic():
    assert generate_script(7) == generate_script(7)
    assert generate_script(7) != generate_script(8)
