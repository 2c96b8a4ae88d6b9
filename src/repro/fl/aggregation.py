"""Server-side parameter aggregation.

Two aggregation modes are provided:

* :func:`aggregate_full` — classical FedAvg: a weighted average of complete
  model updates (weights default to local sample counts).
* :func:`aggregate_partial` — neuron-granular aggregation for partial-model
  updates (soft-training, Random/federated-dropout baselines): every neuron
  of the global model is averaged only over the devices that actually
  trained it this cycle; untouched neurons keep their previous global
  value.  Per-device aggregation weights are where Helios' heterogeneity
  adjustment ``α_n = r_n / Σ r_n`` plugs in.

Helios' per-neuron contribution metric (paper Eq. 1,
:func:`neuron_contributions`) is computed next to the fold, by whichever
process holds a masked job's trained weights.

Hierarchical folding
--------------------
Both modes are built on one partition-independent reduction so that the
same set of updates aggregates to the **bit-identical** result whether it
is reduced in one flat pass or folded shard-by-shard and combined later
(see :meth:`FederatedSimulation.train_and_aggregate` and the ``"fold"``
wire path in :mod:`repro.fl.executor`):

* :func:`fold_updates` reduces any subset of a cycle's updates into a
  :class:`PartialAggregate` — per-parameter weighted sums plus the
  per-neuron contribution-weight table, each kept as *exact* per-level
  sums (below);
* :func:`merge_partials` losslessly merges partial aggregates (shard →
  parent combine);
* :func:`finalize_partials` turns merged partials into new global
  weights, keeping the previous global value for any neuron no update
  covered.

Reproducible summation
----------------------
Floating-point addition is not associative, so a shard-local fold could
never bit-match a flat reduction under arbitrary client→shard
partitions.  The cross-update reductions here therefore pre-round every
addend onto three fixed power-of-two grids (Rump/Demmel–Nguyen style
error-free extraction: ``hi = (a + anchor) - anchor`` splits ``a`` into a
grid multiple and an exact remainder).  Sums of grid multiples whose
magnitudes fit the grid's exactness range are **exact** in float64 and
hence independent of summation order and partitioning; the three per-level
sums travel separately and are collapsed in one fixed final step.

Domain (asserted where cheap, documented here): addends — aggregation
weight x parameter value, weights normalized to sum to 1 — must stay
below ``2^13`` in magnitude, and one reduction may span at most ``2^24``
addends.  The discarded residual after the third grid is below
``2^-72`` absolute, far inside every numerical tolerance used in this
repository.

Dtype
-----
This module is the one place the substrate computes in float64, on
purpose: clients train and ship float32 weights, every addend is cast up
before it is split onto the grids (a float32 value is an ordinary float64
input), the level sums and :func:`finalize_partials`' result are float64,
and ``Sequential.set_weights`` rounds that result once into the float32
global model.  One rounding of one partition-independent float64 value:
one in-process fold and any client→shard partition install the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..nn.model import Sequential
from .client import ClientUpdate

__all__ = ["ModelStructure", "PartialAggregate", "aggregate_full",
           "aggregate_partial", "collapse_levels", "finalize_partials",
           "fold_stacked", "fold_updates", "layer_parameter_index",
           "level_sums", "merge_partials", "neuron_contributions",
           "normalize_weights", "sample_count_weights"]


@dataclass(frozen=True)
class ParameterInfo:
    """Structural metadata for one named parameter."""

    name: str
    layer_name: Optional[str]
    neuron_axis: Optional[int]
    shape: tuple


class ModelStructure:
    """Mapping from parameter names to the maskable layer that owns them.

    The server needs this to know, for every exchanged tensor, which axis
    indexes neurons and which soft-training mask (keyed by layer name)
    applies to it.
    """

    def __init__(self, parameters: Sequence[ParameterInfo]) -> None:
        self._by_name: Dict[str, ParameterInfo] = {
            info.name: info for info in parameters}

    @classmethod
    def from_model(cls, model: Sequential) -> "ModelStructure":
        """Build the structure table from a reference model instance."""
        owner_by_param_id: Dict[int, str] = {}
        for layer in model.neuron_layers():
            for param in layer.parameters():
                owner_by_param_id[id(param)] = layer.name
        infos: List[ParameterInfo] = []
        for name, param in model.named_parameters().items():
            layer_name = owner_by_param_id.get(id(param))
            infos.append(ParameterInfo(
                name=name,
                layer_name=layer_name,
                neuron_axis=param.neuron_axis if layer_name else None,
                shape=tuple(param.data.shape),
            ))
        return cls(infos)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> ParameterInfo:
        return self._by_name[name]

    def parameter_names(self) -> List[str]:
        """All parameter names in the structure."""
        return list(self._by_name)

    def layer_of(self, parameter_name: str) -> Optional[str]:
        """Maskable layer owning a parameter (None for shared parameters)."""
        return self._by_name[parameter_name].layer_name


def sample_count_weights(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """FedAvg weights proportional to each client's local sample count."""
    counts = np.array([float(update.num_samples) for update in updates])
    if counts.sum() <= 0:
        raise ValueError("total sample count must be positive")
    return counts / counts.sum()


def normalize_weights(weights: Sequence[float]) -> np.ndarray:
    """Normalize non-negative finite weights to sum to one."""
    values = np.asarray(weights, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("weights must be a 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("weights must be finite (no NaN/Inf)")
    if np.any(values < 0):
        raise ValueError("weights must be non-negative")
    total = values.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return values / total


# --------------------------------------------------------------------- #
# neuron contributions (paper Eq. 1)
# --------------------------------------------------------------------- #

def layer_parameter_index(model: Sequential
                          ) -> Dict[str, List[Tuple[str, int]]]:
    """Map each maskable layer to its ``(parameter_name, neuron_axis)`` list."""
    named = model.named_parameters()
    id_to_name = {id(param): name for name, param in named.items()}
    index: Dict[str, List[Tuple[str, int]]] = {}
    for layer in model.neuron_layers():
        entries: List[Tuple[str, int]] = []
        for param in layer.parameters():
            name = id_to_name[id(param)]
            axis = param.neuron_axis if param.neuron_axis is not None else 0
            entries.append((name, axis))
        index[layer.name] = entries
    return index


def _per_neuron_change(old: np.ndarray, new: np.ndarray,
                       axis: int) -> np.ndarray:
    """Sum of absolute parameter changes per neuron slice."""
    delta = np.abs(np.asarray(new, dtype=np.float64)
                   - np.asarray(old, dtype=np.float64))
    moved = np.moveaxis(delta, axis, 0)
    return moved.reshape(moved.shape[0], -1).sum(axis=1)


def neuron_contributions(model: Sequential,
                         old_weights: Mapping[str, np.ndarray],
                         new_weights: Mapping[str, np.ndarray]
                         ) -> Dict[str, np.ndarray]:
    """Per-layer neuron contribution ``U_ij`` between two weight snapshots.

    Paper Eq. 1: the contribution of neuron ``j`` of layer ``i`` after a
    training cycle is the magnitude of its parameters' change during
    that cycle.  The worker or shard that trained a masked job computes
    it and returns it on the job's
    :class:`~repro.fl.client.TrainingSummary`.  Like the fold it sums
    float32 snapshots in float64, which is why it lives here rather
    than in :mod:`repro.nn`, where no code names a float64 dtype.

    Parameters
    ----------
    model:
        A model instance describing the layer/parameter structure (its
        current weights are not used).
    old_weights / new_weights:
        Weight dictionaries before and after the training cycle, as
        produced by :meth:`Sequential.get_weights`.

    Returns
    -------
    dict
        ``layer_name -> array of length num_neurons`` with non-negative
        contribution scores.
    """
    index = layer_parameter_index(model)
    contributions: Dict[str, np.ndarray] = {}
    for layer_name, entries in index.items():
        totals: np.ndarray = None  # type: ignore[assignment]
        for param_name, axis in entries:
            if param_name not in old_weights or param_name not in new_weights:
                raise KeyError(
                    f"weight snapshots missing parameter {param_name!r}")
            change = _per_neuron_change(old_weights[param_name],
                                        new_weights[param_name], axis)
            totals = change if totals is None else totals + change
        contributions[layer_name] = totals
    return contributions


# --------------------------------------------------------------------- #
# reproducible (partition-independent) summation
# --------------------------------------------------------------------- #

#: Exponents of the three pre-rounding grids.  Chosen so that, for
#: addends below ``2^13`` and at most ``2^24`` of them, every per-level
#: sum stays inside its grid's float64 exactness range (see module docs).
_LEVEL_EXPONENTS = (-37, -66, -95)
NUM_LEVELS = len(_LEVEL_EXPONENTS)

#: Largest addend magnitude the grids support (weights are normalized to
#: sum to 1, so this effectively bounds the model-parameter magnitude).
_MAX_ADDEND = float(2.0 ** 13)


#: ``1.5 x 2^(52 + e)`` per grid: adding and subtracting it rounds a
#: value to a multiple of ``2^e`` (the error-free extraction).
_ANCHORS = tuple(float(np.ldexp(1.5, 52 + exponent))
                 for exponent in _LEVEL_EXPONENTS)

#: Trailing elements per block of :func:`level_sums`.  The split runs in
#: two reused ``(addends, block)`` buffers — 512 KiB together for 16
#: addends, small enough to stay in a core's cache — instead of
#: materialising every level's part and residual at the full
#: ``(addends, ...)`` size.
_LEVEL_BLOCK = 2048


def level_sums(values: np.ndarray) -> np.ndarray:
    """Per-level exact sums of ``values`` over its leading (addend) axis.

    Every addend is split error-free onto the three fixed grids — each
    component an exact multiple of its grid, their sum ``values`` up to
    a ``< 2^-96`` per-element residual that is discarded — and each
    grid's components are summed.  The split is elementwise and
    deterministic, so it is identical wherever (parent or shard) it
    runs, and it proceeds a block of :data:`_LEVEL_BLOCK` trailing
    elements at a time, which no result can show.

    Returns an array with a new leading axis of size :data:`NUM_LEVELS`
    in place of the addend axis; each level is exact (hence independent
    of summation order and of how the addends were partitioned before
    summing).  Accumulating several calls' results with ``+`` stays
    exact, which is what makes shard-side incremental folds combine
    losslessly.
    """
    values = np.asarray(values)
    count = values.shape[0]
    flat = values.reshape(count, math.prod(values.shape[1:]))
    width = flat.shape[1]
    sums = np.empty((NUM_LEVELS, width), dtype=np.float64)
    block = max(1, min(_LEVEL_BLOCK, width))
    residual_buffer = np.empty((count, block), dtype=np.float64)
    grid_buffer = np.empty((count, block), dtype=np.float64)
    for start in range(0, width, block):
        stop = min(start + block, width)
        residual = residual_buffer[:, :stop - start]
        grid = grid_buffer[:, :stop - start]
        residual[...] = flat[:, start:stop]
        if count:
            peak = float(np.abs(residual, out=grid).max())
            if not np.isfinite(peak) or peak >= _MAX_ADDEND:
                raise ValueError(
                    f"aggregation addend magnitude {peak!r} outside the "
                    f"reproducible-summation domain (|addend| < "
                    f"{_MAX_ADDEND}); weighted parameter values must stay "
                    f"below 2^13")
        for level, anchor in enumerate(_ANCHORS):
            np.add(residual, anchor, out=grid)
            np.subtract(grid, anchor, out=grid)
            np.sum(grid, axis=0, out=sums[level, start:stop])
            if level + 1 < NUM_LEVELS:
                np.subtract(residual, grid, out=residual)
    return sums.reshape((NUM_LEVELS,) + values.shape[1:])


def collapse_levels(levels: np.ndarray) -> np.ndarray:
    """Collapse per-level sums into a scalar/tensor total.

    One fixed left-to-right three-term addition — the only inexact step
    of the reduction, performed exactly once on exact operands, so the
    result is a pure function of the addend *set*.
    """
    return (levels[0] + levels[1]) + levels[2]


# --------------------------------------------------------------------- #
# partial (hierarchical) aggregation
# --------------------------------------------------------------------- #

@dataclass
class PartialAggregate:
    """Order-independent fold of a subset of one cycle's updates.

    ``weighted_sums[name]`` holds the per-level sums (leading axis
    :data:`NUM_LEVELS`) of ``weight x update`` over the folded updates;
    ``weight_tables[name]`` the per-level sums of the contribution
    weights — per neuron (``(levels, num_neurons)``) for neuron-structured
    parameters, scalar (``(levels,)``) otherwise.  Two partial aggregates
    of disjoint update subsets merge losslessly with
    :func:`merge_partials`; this is the unit a shard ships upstream
    instead of its residents' full updates — O(weights), independent of
    how many clients the shard hosts.
    """

    num_updates: int
    weighted_sums: Dict[str, np.ndarray]
    weight_tables: Dict[str, np.ndarray]


#: Updates contracted per chunk in :func:`fold_updates` — bounds the
#: transient stacked tensor at chunk x largest-parameter.
_AGGREGATION_CHUNK = 16


def _neuron_weight_vector(mask: Optional[np.ndarray], size: int,
                          weight: float) -> np.ndarray:
    """Per-neuron contribution weight of one client for one layer."""
    if mask is None:
        return np.full(size, weight)
    return np.where(mask, weight, 0.0)


def _neuron_weight_matrix(updates: Sequence[ClientUpdate],
                          weights: np.ndarray, layer_name: str,
                          num_neurons: int) -> np.ndarray:
    """``(num_updates, num_neurons)`` contribution-weight matrix.

    Row ``u`` is update ``u``'s per-neuron aggregation weight for one
    layer: its scalar weight where its mask covers the neuron, zero
    where it does not (no mask covers everything).
    """
    matrix = np.empty((len(updates), num_neurons), dtype=np.float64)
    for row, (weight, update) in enumerate(zip(weights, updates)):
        layer_mask = None
        if update.mask is not None and layer_name in update.mask:
            layer_mask = update.mask[layer_name]
        matrix[row] = _neuron_weight_vector(layer_mask, num_neurons,
                                            float(weight))
    return matrix


def _is_neuron_param(name: str, structure: Optional[ModelStructure]
                     ) -> bool:
    if structure is None or name not in structure:
        return False
    info = structure[name]
    return info.layer_name is not None and info.neuron_axis is not None


def _checked_factors(weight_factors: Sequence[float],
                     count: int) -> np.ndarray:
    """``weight_factors`` as a validated ``(count,)`` float64 vector."""
    factors = np.asarray(weight_factors, dtype=np.float64)
    if factors.shape != (count,):
        raise ValueError("need exactly one weight factor per update")
    if not np.all(np.isfinite(factors)) or np.any(factors < 0):
        raise ValueError("weight factors must be finite and non-negative")
    return factors


def _fold_shared(block: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Per-level sums of ``factors[u] x block[u]`` over the update axis
    of one ``(updates, ...)`` block of a shared parameter."""
    shaped = factors.reshape((len(block),) + (1,) * (block.ndim - 1))
    return level_sums(shaped * block)


def fold_stacked(stacked: Mapping[str, np.ndarray],
                 weight_factors: Sequence[float]) -> PartialAggregate:
    """Fold updates that already sit stacked along a leading axis.

    ``stacked[name]`` is ``(num_updates, ...)`` — what
    :func:`repro.fl.fusion.train_stacked` returns for a chunk of
    clients.  Equal, bit for bit, to :func:`fold_updates` with
    ``partial=False`` over the same updates unstacked (every parameter
    shared, plain weighted mean), without materializing them.
    """
    if not stacked:
        raise ValueError("need at least one parameter to fold")
    count = len(next(iter(stacked.values())))
    if count == 0:
        raise ValueError("need at least one update to fold")
    factors = _checked_factors(weight_factors, count)
    table = level_sums(factors)
    weighted_sums: Dict[str, np.ndarray] = {}
    weight_tables: Dict[str, np.ndarray] = {}
    for name, values in stacked.items():
        values = np.asarray(values, dtype=np.float64)
        if len(values) != count:
            raise ValueError(f"parameter {name!r} stacks {len(values)} "
                             f"updates, expected {count}")
        # Contracted a block at a time like fold_updates, which bounds
        # the transients; the level sums are exact, so the blocking is
        # invisible in the result.
        sums = np.zeros((NUM_LEVELS,) + values.shape[1:], dtype=np.float64)
        for start in range(0, count, _AGGREGATION_CHUNK):
            stop = start + _AGGREGATION_CHUNK
            sums += _fold_shared(values[start:stop], factors[start:stop])
        weighted_sums[name] = sums
        weight_tables[name] = table.copy()
    return PartialAggregate(num_updates=count, weighted_sums=weighted_sums,
                            weight_tables=weight_tables)


def fold_updates(updates: Sequence[ClientUpdate],
                 weight_factors: Sequence[float],
                 structure: Optional[ModelStructure] = None,
                 partial: bool = True) -> PartialAggregate:
    """Fold updates into a :class:`PartialAggregate`.

    Parameters
    ----------
    updates:
        The updates to fold (any subset of one cycle's updates).
    weight_factors:
        Each update's **globally normalized** aggregation weight — over
        the *whole* cycle, not just this subset; the caller (parent)
        normalizes once and ships each shard its updates' factors, so
        every shard folds with the exact same per-update floats a flat
        reduction would use.
    structure:
        Parameter→layer mapping; ``None`` treats every parameter as
        shared (plain weighted mean).
    partial:
        Honor per-update neuron masks (neuron-granular weight matrix).
        ``False`` reproduces FedAvg semantics: masks are ignored and
        every update contributes everywhere.
    """
    if not updates:
        raise ValueError("need at least one update to fold")
    factors = _checked_factors(weight_factors, len(updates))

    weighted_sums: Dict[str, np.ndarray] = {}
    weight_tables: Dict[str, np.ndarray] = {}
    for name in updates[0].weights:
        sample = np.asarray(updates[0].weights[name])
        if partial and _is_neuron_param(name, structure):
            info = structure[name]
            axis = info.neuron_axis
            num_neurons = sample.shape[axis]
            moved_shape = ((num_neurons,)
                           + tuple(np.delete(sample.shape, axis)))
            sums = np.zeros((NUM_LEVELS,) + moved_shape, dtype=np.float64)
            table = np.zeros((NUM_LEVELS, num_neurons), dtype=np.float64)
            for start in range(0, len(updates), _AGGREGATION_CHUNK):
                chunk = updates[start:start + _AGGREGATION_CHUNK]
                matrix = _neuron_weight_matrix(
                    chunk, factors[start:start + _AGGREGATION_CHUNK],
                    info.layer_name, num_neurons)
                stacked = np.stack([np.asarray(update.weights[name],
                                               dtype=np.float64)
                                    for update in chunk])
                # Move the neuron axis next to the update axis so one
                # broadcast shape covers every parameter layout; peak
                # transient memory stays O(chunk x parameter).
                stacked_moved = np.moveaxis(stacked, axis + 1, 1)
                shaped = matrix.reshape(matrix.shape
                                        + (1,) * (stacked_moved.ndim - 2))
                # C order: level_sums flattens the product without a copy.
                sums += level_sums(np.multiply(shaped, stacked_moved,
                                               order="C"))
                table += level_sums(matrix)
            weighted_sums[name] = sums
            weight_tables[name] = table
        else:
            sums = np.zeros((NUM_LEVELS,) + sample.shape, dtype=np.float64)
            for start in range(0, len(updates), _AGGREGATION_CHUNK):
                chunk = updates[start:start + _AGGREGATION_CHUNK]
                sums += _fold_shared(
                    np.stack([np.asarray(update.weights[name],
                                         dtype=np.float64)
                              for update in chunk]),
                    factors[start:start + len(chunk)])
            weighted_sums[name] = sums
            weight_tables[name] = level_sums(factors)
    return PartialAggregate(num_updates=len(updates),
                            weighted_sums=weighted_sums,
                            weight_tables=weight_tables)


def merge_partials(partials: Sequence[PartialAggregate]
                   ) -> PartialAggregate:
    """Losslessly merge partial aggregates of disjoint update subsets.

    Per-level sums add exactly, so the merge is associative, commutative
    and independent of how the updates were partitioned — the property
    the hierarchical (in-shard) aggregation path rests on.
    """
    if not partials:
        raise ValueError("need at least one partial aggregate to merge")
    first = partials[0]
    merged_sums = {name: array.copy()
                   for name, array in first.weighted_sums.items()}
    merged_tables = {name: array.copy()
                     for name, array in first.weight_tables.items()}
    total = first.num_updates
    for other in partials[1:]:
        if other.weighted_sums.keys() != merged_sums.keys():
            raise ValueError("partial aggregates cover different "
                             "parameter sets")
        for name in merged_sums:
            merged_sums[name] += other.weighted_sums[name]
            merged_tables[name] += other.weight_tables[name]
        total += other.num_updates
    return PartialAggregate(num_updates=total, weighted_sums=merged_sums,
                            weight_tables=merged_tables)


def finalize_partials(global_weights: Optional[Mapping[str, np.ndarray]],
                      partials: Sequence[PartialAggregate],
                      structure: Optional[ModelStructure] = None
                      ) -> Dict[str, np.ndarray]:
    """Merge partial aggregates and normalize them into new weights.

    Every neuron (or shared tensor) is divided by its summed contribution
    weight; a neuron covered by **zero** updates — every mask excluded it,
    or all its contributors had zero weight — keeps its previous global
    value instead of dividing by zero.  ``global_weights`` may be ``None``
    only when full coverage is guaranteed (plain FedAvg); partial
    coverage without a fallback raises.
    """
    merged = merge_partials(partials)
    names = (list(global_weights) if global_weights is not None
             else list(merged.weighted_sums))
    aggregated: Dict[str, np.ndarray] = {}
    for name in names:
        levels = merged.weighted_sums[name]
        table = merged.weight_tables[name]
        denominator = collapse_levels(table)
        if table.ndim == 1:  # shared parameter: scalar denominator
            if denominator > 0:
                numerator = collapse_levels(levels)
                aggregated[name] = numerator / denominator
            elif global_weights is not None:
                aggregated[name] = np.array(global_weights[name],
                                            dtype=np.float64, copy=True)
            else:
                raise ValueError(
                    f"parameter {name!r} received zero total weight and "
                    f"no global fallback weights were provided")
            continue
        if not _is_neuron_param(name, structure):
            raise ValueError(
                f"parameter {name!r} was folded with a per-neuron weight "
                f"table but the structure does not mark it "
                f"neuron-structured")
        axis = structure[name].neuron_axis
        num_neurons = table.shape[1]
        numerator_moved = collapse_levels(levels)
        covered = denominator > 0
        if global_weights is None and not np.all(covered):
            raise ValueError(
                f"parameter {name!r} has neurons covered by zero updates "
                f"and no global fallback weights were provided")
        safe_denominator = np.where(covered, denominator, 1.0)
        broadcast_shape = (num_neurons,) + (1,) * (numerator_moved.ndim - 1)
        blended_moved = numerator_moved / safe_denominator.reshape(
            broadcast_shape)
        blended = np.moveaxis(blended_moved, 0, axis)
        if np.all(covered):
            aggregated[name] = blended
            continue
        global_value = np.asarray(global_weights[name])
        keep_shape = [1] * global_value.ndim
        keep_shape[axis] = num_neurons
        keep_mask = (~covered).reshape(keep_shape)
        aggregated[name] = np.where(keep_mask, global_value, blended)
    return aggregated


# --------------------------------------------------------------------- #
# flat entry points (one-shot folds of a whole cycle)
# --------------------------------------------------------------------- #

def _resolve_weights(updates: Sequence[ClientUpdate],
                     client_weights: Optional[Sequence[float]]
                     ) -> np.ndarray:
    if client_weights is None:
        return sample_count_weights(updates)
    if len(client_weights) != len(updates):
        raise ValueError("client_weights length must match updates")
    return normalize_weights(client_weights)


def aggregate_full(updates: Sequence[ClientUpdate],
                   client_weights: Optional[Sequence[float]] = None
                   ) -> Dict[str, np.ndarray]:
    """Weighted average of complete model updates (FedAvg).

    Implemented as a one-partial hierarchical fold, so a shard-wise fold
    of the same updates (:func:`fold_updates` with ``partial=False`` +
    :func:`finalize_partials`) is bit-identical by construction.
    """
    if not updates:
        raise ValueError("need at least one update to aggregate")
    weights = _resolve_weights(updates, client_weights)
    folded = fold_updates(updates, weights, structure=None, partial=False)
    return finalize_partials(None, [folded])


def aggregate_partial(global_weights: Mapping[str, np.ndarray],
                      updates: Sequence[ClientUpdate],
                      structure: ModelStructure,
                      client_weights: Optional[Sequence[float]] = None
                      ) -> Dict[str, np.ndarray]:
    """Neuron-granular weighted aggregation of partial-model updates.

    Parameters
    ----------
    global_weights:
        The current global model (provides values for neurons nobody
        trained this cycle).
    updates:
        Client updates; an update with ``mask=None`` contributes to every
        neuron.
    structure:
        Parameter-to-layer mapping of the global model.
    client_weights:
        Per-update aggregation weight (defaults to sample counts).  Helios
        passes FedAvg sample weights multiplied by ``α_n``.

    Like :func:`aggregate_full` this is a one-partial fold: folding the
    same updates shard-by-shard with the same normalized weights and
    finalizing the merged partials yields the bit-identical result.
    """
    if not updates:
        raise ValueError("need at least one update to aggregate")
    weights = _resolve_weights(updates, client_weights)
    folded = fold_updates(updates, weights, structure=structure,
                          partial=True)
    return finalize_partials(global_weights, [folded], structure=structure)
