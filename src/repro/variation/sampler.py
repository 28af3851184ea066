"""Sampling of uncertainty realizations for meshes, layers and networks.

The functions here draw one Monte Carlo realization of the Gaussian
uncertainty model (paper §III-A) for:

* a single :class:`~repro.mesh.mesh.MZIMesh` (layer-level studies, Fig. 3),
* a full :class:`~repro.mesh.svd_layer.PhotonicLinearLayer`
  (two unitary meshes + the Sigma attenuator bank), and
* a list of layers, i.e. the whole SPNN (system-level studies, Figs. 4-5).

Zonal experiments (EXP 2) use :func:`sample_mesh_perturbation` with a
per-MZI sigma override produced by :mod:`repro.variation.zones`.

The ``*_batch`` variants draw ``B`` realizations at once (one per child
generator) and stack them with a leading batch axis, e.g. ``(B, num_mzis)``
arrays for a mesh.  Realization ``b`` is drawn from ``generators[b]`` with
exactly the same calls as the single-realization sampler, so given the same
spawned child streams the batched draws are bit-identical to the loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..mesh.diagonal import DiagonalPerturbation, DiagonalPerturbationBatch
from ..mesh.mesh import MeshPerturbation, MeshPerturbationBatch, MZIMesh
from ..mesh.svd_layer import LayerPerturbation, LayerPerturbationBatch, PhotonicLinearLayer
from ..utils.rng import RNGLike, ensure_rng, standard_normal_rows
from .models import UncertaintyModel


def _phase_sigmas(model: UncertaintyModel, count: int, override: Optional[np.ndarray]):
    """Per-MZI phase sigmas: an array for overrides, a cheap scalar otherwise."""
    if override is not None:
        override = np.asarray(override, dtype=np.float64)
        return override * 2.0 * np.pi if model.perturb_phases else np.zeros(count)
    return model.phase_std


def _splitter_sigmas(model: UncertaintyModel, count: int, override: Optional[np.ndarray]):
    """Per-MZI splitter sigmas: an array for overrides, a cheap scalar otherwise."""
    if override is not None:
        override = np.asarray(override, dtype=np.float64)
        return override / np.sqrt(2.0) if model.perturb_splitters else np.zeros(count)
    return model.splitter_std


def sample_mesh_perturbation(
    mesh: MZIMesh,
    model: UncertaintyModel,
    rng: RNGLike = None,
    sigma_phs_per_mzi: Optional[np.ndarray] = None,
    sigma_bes_per_mzi: Optional[np.ndarray] = None,
) -> MeshPerturbation:
    """Draw one uncertainty realization for a unitary mesh.

    Parameters
    ----------
    mesh:
        The mesh whose devices are perturbed.
    model:
        Component-level uncertainty model (which families, what sigmas).
    rng:
        Seed or generator.
    sigma_phs_per_mzi, sigma_bes_per_mzi:
        Optional per-MZI *normalized* sigma overrides (length
        ``mesh.num_mzis``).  Used by zonal experiments where different
        regions of the mesh have different uncertainty levels.
    """
    gen = ensure_rng(rng)
    count = mesh.num_mzis
    phase_sigma = _phase_sigmas(model, count, sigma_phs_per_mzi)
    splitter_sigma = _splitter_sigmas(model, count, sigma_bes_per_mzi)

    # One standard-normal draw for all device families.  The generator
    # consumes its stream exactly as the historical per-family ``normal``
    # calls did (chunked standard-normal draws concatenate, and
    # ``normal(0, s, n)`` equals ``standard_normal(n) * s`` bit for bit), so
    # sampled values are unchanged while the Python/NumPy call count drops.
    extra = mesh.n if model.perturb_output_phases else 0
    draws = gen.standard_normal(4 * count + extra)
    delta_output = draws[4 * count :] * model.phase_std if model.perturb_output_phases else None
    return MeshPerturbation(
        delta_theta=draws[0:count] * phase_sigma,
        delta_phi=draws[count : 2 * count] * phase_sigma,
        delta_r_in=draws[2 * count : 3 * count] * splitter_sigma,
        delta_r_out=draws[3 * count : 4 * count] * splitter_sigma,
        delta_output_phase=delta_output,
    )


def sample_single_mzi_perturbation(
    mesh: MZIMesh,
    mzi_index: int,
    model: UncertaintyModel,
    rng: RNGLike = None,
) -> MeshPerturbation:
    """Perturb only one MZI of a mesh (the Fig. 3 layer-level study)."""
    gen = ensure_rng(rng)
    count = mesh.num_mzis
    if not 0 <= mzi_index < count:
        raise IndexError(f"mzi_index must be in [0, {count}), got {mzi_index}")
    perturbation = MeshPerturbation.none(count, mesh.n)
    if model.perturb_phases:
        perturbation.delta_theta[mzi_index] = gen.normal(0.0, model.phase_std)
        perturbation.delta_phi[mzi_index] = gen.normal(0.0, model.phase_std)
    if model.perturb_splitters:
        perturbation.delta_r_in[mzi_index] = gen.normal(0.0, model.splitter_std)
        perturbation.delta_r_out[mzi_index] = gen.normal(0.0, model.splitter_std)
    return perturbation


def sample_diagonal_perturbation(
    num_mzis: int,
    model: UncertaintyModel,
    rng: RNGLike = None,
) -> Optional[DiagonalPerturbation]:
    """Draw one uncertainty realization for a Sigma attenuator bank."""
    if not model.perturb_sigma_stage or num_mzis == 0:
        return None
    gen = ensure_rng(rng)
    phase_sigma = model.phase_std
    splitter_sigma = model.splitter_std
    # One standard-normal draw covering only the active families, consuming
    # the stream exactly as the historical per-family ``normal`` calls did
    # (disabled families drew nothing).
    num_phase = 2 * num_mzis if phase_sigma else 0
    num_splitter = 2 * num_mzis if splitter_sigma else 0
    draws = gen.standard_normal(num_phase + num_splitter)
    if phase_sigma:
        delta_theta = draws[0:num_mzis] * phase_sigma
        delta_phi = draws[num_mzis : 2 * num_mzis] * phase_sigma
    else:
        delta_theta, delta_phi = np.zeros(num_mzis), np.zeros(num_mzis)
    if splitter_sigma:
        delta_r_in = draws[num_phase : num_phase + num_mzis] * splitter_sigma
        delta_r_out = draws[num_phase + num_mzis :] * splitter_sigma
    else:
        delta_r_in, delta_r_out = np.zeros(num_mzis), np.zeros(num_mzis)
    return DiagonalPerturbation(
        delta_theta=delta_theta,
        delta_phi=delta_phi,
        delta_r_in=delta_r_in,
        delta_r_out=delta_r_out,
    )


def sample_layer_perturbation(
    layer: PhotonicLinearLayer,
    model: UncertaintyModel,
    rng: RNGLike = None,
) -> LayerPerturbation:
    """Draw one uncertainty realization for a full photonic linear layer."""
    gen = ensure_rng(rng)
    return LayerPerturbation(
        u=sample_mesh_perturbation(layer.mesh_u, model, gen),
        v=sample_mesh_perturbation(layer.mesh_v, model, gen),
        sigma=sample_diagonal_perturbation(layer.diagonal.num_mzis, model, gen),
    )


def sample_network_perturbation(
    layers: Sequence[PhotonicLinearLayer],
    model: UncertaintyModel,
    rng: RNGLike = None,
) -> List[LayerPerturbation]:
    """Draw one uncertainty realization for every layer of an SPNN."""
    gen = ensure_rng(rng)
    return [sample_layer_perturbation(layer, model, gen) for layer in layers]


# --------------------------------------------------------------------------- #
# batched sampling (leading Monte Carlo axis B, one child stream per row)
# --------------------------------------------------------------------------- #


def mesh_batch_draw_length(mesh: MZIMesh, model: UncertaintyModel) -> int:
    """Standard-normal draws one mesh realization consumes from its stream.

    The draws→fields mapping of :func:`mesh_perturbation_batch_from_draws`
    slices exactly this many values per row; temporal perturbation
    processes (:mod:`repro.variation.process`) use it to size their state
    matrices so their per-step stream consumption matches the i.i.d.
    sampler draw for draw.
    """
    extra = mesh.n if model.perturb_output_phases else 0
    return 4 * mesh.num_mzis + extra


def mesh_perturbation_batch_from_draws(
    mesh: MZIMesh,
    model: UncertaintyModel,
    draws,
    sigma_phs_per_mzi: Optional[np.ndarray] = None,
    sigma_bes_per_mzi: Optional[np.ndarray] = None,
) -> MeshPerturbationBatch:
    """Map a ``(B, mesh_batch_draw_length)`` standard-normal matrix to fields.

    This is the single draws→physical-fields mapping shared by the i.i.d.
    batch sampler and the temporal perturbation processes: slice the
    concatenated draw matrix into the device families and scale each by its
    sigma.  Applying it to draws produced by
    :func:`~repro.utils.rng.standard_normal_rows` reproduces
    :func:`sample_mesh_perturbation_batch` bit for bit; applying it to a
    temporally evolved state matrix yields the perturbation that state
    represents under ``model``.  When ``model`` does not perturb splitters,
    ``delta_r_in``/``delta_r_out`` are ``None`` (the mesh then evaluates
    the nominal reflectances, bit-identical to all-zero fields).
    """
    count = mesh.num_mzis
    phase_sigma = _phase_sigmas(model, count, sigma_phs_per_mzi)
    splitter_sigma = _splitter_sigmas(model, count, sigma_bes_per_mzi)
    extra = mesh.n if model.perturb_output_phases else 0
    # Unperturbed splitters get no fields: ``draws * 0.0`` is all (signed)
    # zeros, which leave ``r`` exactly nominal, so the mesh evaluates them
    # at their ``(M,)`` shape instead.  Their draws are still sliced off,
    # so no stream changes.  Phase fields stay even when zero: ``theta +
    # 0.0`` turns a nominal ``-0.0`` into ``+0.0``.
    splitters = model.perturb_splitters
    return MeshPerturbationBatch(
        delta_theta=draws[:, 0:count] * phase_sigma,
        delta_phi=draws[:, count : 2 * count] * phase_sigma,
        delta_r_in=draws[:, 2 * count : 3 * count] * splitter_sigma if splitters else None,
        delta_r_out=draws[:, 3 * count : 4 * count] * splitter_sigma if splitters else None,
        delta_output_phase=draws[:, 4 * count :] * model.phase_std if extra else None,
    )


def sample_mesh_perturbation_batch(
    mesh: MZIMesh,
    model: UncertaintyModel,
    generators: Sequence[np.random.Generator],
    sigma_phs_per_mzi: Optional[np.ndarray] = None,
    sigma_bes_per_mzi: Optional[np.ndarray] = None,
) -> MeshPerturbationBatch:
    """Draw ``B = len(generators)`` mesh realizations as ``(B, num_mzis)`` arrays.

    Row ``b`` consumes ``generators[b]`` exactly as
    :func:`sample_mesh_perturbation` would, so the stacked result is
    bit-identical to sampling the realizations one at a time from the same
    streams.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("sample_mesh_perturbation_batch requires at least one generator")
    draws = standard_normal_rows(generators, mesh_batch_draw_length(mesh, model))
    return mesh_perturbation_batch_from_draws(
        mesh,
        model,
        draws,
        sigma_phs_per_mzi=sigma_phs_per_mzi,
        sigma_bes_per_mzi=sigma_bes_per_mzi,
    )


def diagonal_batch_draw_length(num_mzis: int, model: UncertaintyModel) -> Optional[int]:
    """Draws one Sigma-bank realization consumes, or ``None`` when inactive.

    ``None`` mirrors the gating of :func:`sample_diagonal_perturbation`:
    a disabled Sigma stage (or an empty bank) draws nothing at all and
    yields no perturbation object.
    """
    if not model.perturb_sigma_stage or num_mzis == 0:
        return None
    num_phase = 2 * num_mzis if model.phase_std else 0
    num_splitter = 2 * num_mzis if model.splitter_std else 0
    return num_phase + num_splitter


def diagonal_perturbation_batch_from_draws(
    num_mzis: int,
    model: UncertaintyModel,
    draws,
) -> DiagonalPerturbationBatch:
    """Map a ``(B, diagonal_batch_draw_length)`` draw matrix to Sigma fields.

    The caller is responsible for the active-stage gating
    (:func:`diagonal_batch_draw_length` returning ``None`` means no draws
    and no perturbation); given the draws this applies the same
    slice-and-scale mapping as :func:`sample_diagonal_perturbation_batch`.
    """
    phase_sigma = model.phase_std
    splitter_sigma = model.splitter_std
    num_phase = 2 * num_mzis if phase_sigma else 0
    batch = draws.shape[0]
    if phase_sigma:
        delta_theta = draws[:, 0:num_mzis] * phase_sigma
        delta_phi = draws[:, num_mzis : 2 * num_mzis] * phase_sigma
    else:
        delta_theta = np.zeros((batch, num_mzis))
        delta_phi = np.zeros((batch, num_mzis))
    if splitter_sigma:
        delta_r_in = draws[:, num_phase : num_phase + num_mzis] * splitter_sigma
        delta_r_out = draws[:, num_phase + num_mzis :] * splitter_sigma
    else:
        delta_r_in = np.zeros((batch, num_mzis))
        delta_r_out = np.zeros((batch, num_mzis))
    return DiagonalPerturbationBatch(
        delta_theta=delta_theta,
        delta_phi=delta_phi,
        delta_r_in=delta_r_in,
        delta_r_out=delta_r_out,
    )


def sample_diagonal_perturbation_batch(
    num_mzis: int,
    model: UncertaintyModel,
    generators: Sequence[np.random.Generator],
) -> Optional[DiagonalPerturbationBatch]:
    """Draw ``B`` Sigma-bank realizations as ``(B, num_mzis)`` arrays."""
    length = diagonal_batch_draw_length(num_mzis, model)
    if length is None:
        return None
    generators = list(generators)
    if not generators:
        raise ValueError("sample_diagonal_perturbation_batch requires at least one generator")
    draws = standard_normal_rows(generators, length)
    return diagonal_perturbation_batch_from_draws(num_mzis, model, draws)


def sample_layer_perturbation_batch(
    layer: PhotonicLinearLayer,
    model: UncertaintyModel,
    generators: Sequence[np.random.Generator],
) -> LayerPerturbationBatch:
    """Draw ``B`` realizations for a full photonic linear layer.

    Each generator is consumed in the same stage order (U mesh, V mesh,
    Sigma bank) as :func:`sample_layer_perturbation`; only the iteration
    over generators is hoisted inside each stage, which does not change any
    stream's own draw sequence.
    """
    generators = list(generators)
    return LayerPerturbationBatch(
        u=sample_mesh_perturbation_batch(layer.mesh_u, model, generators),
        v=sample_mesh_perturbation_batch(layer.mesh_v, model, generators),
        sigma=sample_diagonal_perturbation_batch(layer.diagonal.num_mzis, model, generators),
    )


def sample_network_perturbation_batch(
    layers: Sequence[PhotonicLinearLayer],
    model: UncertaintyModel,
    generators: Sequence[np.random.Generator],
) -> List[Optional[LayerPerturbationBatch]]:
    """Draw ``B`` realizations for every layer of an SPNN, stacked per layer.

    Equivalent to stacking ``[sample_network_perturbation(layers, model, g)
    for g in generators]`` — generator ``b`` is consumed exactly as in the
    looped path (layer by layer, stage by stage), so the batch reproduces
    the loop sample for sample.
    """
    generators = list(generators)
    return [sample_layer_perturbation_batch(layer, model, generators) for layer in layers]
