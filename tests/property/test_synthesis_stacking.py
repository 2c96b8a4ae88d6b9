"""Property test: stacked dataset synthesis is C-independent.

``VirtualClientDatasets.batch(ids)`` draws every client's generator in
the order a lone dataset draws it and runs everything after the draws
once over a leading client axis.  The property the virtual-fleet chunks
rest on: whatever the spec's geometry (channels, odd sizes that hit the
edge-replicated upsampling, shift range, label noise, prototypes), slice
``j`` of a batch is byte-identical to ``factory(ids[j])`` — so neither
the chunk size nor a client's neighbours are visible in its dataset.
"""

from hypothesis import given, settings, strategies as st

from repro.data.synthetic import SyntheticImageSpec, VirtualClientDatasets

specs = st.builds(
    SyntheticImageSpec,
    name=st.just("prop"),
    image_shape=st.tuples(st.integers(1, 3), st.integers(2, 14),
                          st.integers(2, 14)),
    num_classes=st.integers(1, 6),
    separation=st.floats(0.1, 2.0),
    noise_std=st.floats(0.1, 2.0),
    max_shift=st.integers(0, 3),
    label_noise=st.sampled_from([0.0, 0.25, 1.0]),
    prototypes_per_class=st.integers(1, 3),
    smoothness=st.integers(1, 5))


@settings(max_examples=40, deadline=None)
@given(spec=specs, samples=st.integers(1, 12), seed=st.integers(0, 2**20),
       client_ids=st.lists(st.integers(0, 10**6), min_size=1, max_size=9,
                           unique=True))
def test_batch_slice_equals_the_lone_dataset(spec, samples, seed,
                                             client_ids):
    factory = VirtualClientDatasets(spec, samples_per_client=samples,
                                    seed=seed)
    images, labels = factory.batch(client_ids)
    for row, client_id in enumerate(client_ids):
        single = factory(client_id)
        assert images[row].tobytes() == single.images.tobytes()
        assert labels[row].tobytes() == single.labels.tobytes()
