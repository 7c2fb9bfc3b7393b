"""Robustness sweep: a device-fault grid through the full funcsim stack.

The paper flags device variations as the factor that "exacerbates"
crossbar non-ideality. The old variation driver quantified that on one
hard-wired path (exact analog tiles through the circuit oracle); this
driver sweeps a ``sigma x fault-rate x drift`` grid of
:class:`~repro.nonideal.NonidealitySpec` compositions through the *full*
bit-sliced functional-simulator pipeline for any engine kind —
``geniex`` / ``exact`` / ``analytical`` by default — via the same
:func:`~repro.api.open_session` path every other surface uses, so the
numbers include quantisation, bit-slicing, ADC transfer and the engine's
own fidelity, not just raw analog error.

Two cost controls keep big grids honest:

* the GENIEx emulator is resolved **once per engine kind from the clean
  spec** and handed to every faulty session (the characterisation sweep
  is fault-independent; without this, conservative model-key separation
  would retrain per grid point);
* any grid cell whose fault composition is the identity reuses the
  already-computed clean solve (``reused`` column) — the sweep's clean
  baseline column costs nothing.

:func:`nf_stats` is the circuit-level companion (the migrated NF path the
``variations`` table is built from): it perturbs whole sampled
conductance matrices through the same pipeline and reports how the NF
distribution widens against the *intended* computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.session import open_session, resolve_emulator
from repro.api.spec import EmulationSpec
from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.core.metrics import nonideality_factor, valid_mask
from repro.core.sampling import SamplingSpec, VgSampler
from repro.errors import ConfigError
from repro.experiments.common import Profile, format_table, get_profile
from repro.funcsim.engine import IdealMvmEngine
from repro.mitigation.calibration import fit_affine_correction
from repro.nonideal import (
    DriftSpec,
    NonidealityPipeline,
    NonidealitySpec,
    StuckSpec,
    VariationSpec,
)
from repro.xbar.ideal import ideal_mvm

DEFAULT_SIGMAS = (0.0, 0.05, 0.1, 0.2)
DEFAULT_FAULT_RATES = (0.0, 0.01, 0.05)
DEFAULT_DRIFT_TIMES = (0.0, 1e3)
DEFAULT_ENGINES = ("geniex", "exact", "analytical")


def nonideality_for(sigma: float = 0.0, fault_rate: float = 0.0,
                    drift_time_s: float = 0.0,
                    seed: int = 13) -> NonidealitySpec:
    """One grid point's fault composition.

    ``fault_rate`` splits evenly between stuck-ON and stuck-OFF (the
    convention the variation study always used); drift uses the
    transform's default decay exponent.
    """
    return NonidealitySpec(
        seed=seed,
        variation=VariationSpec(sigma=sigma),
        stuck=StuckSpec(p_on=fault_rate / 2, p_off=fault_rate / 2),
        drift=DriftSpec(time_s=drift_time_s))


@dataclass
class RobustnessResult:
    """Grid rows ``[engine, sigma, fault, drift, rmse, p95, reused]``.

    With ``mitigated=True`` (from ``run_robustness(mitigate=True)``) two
    extra columns — mitigated RMSE and the fraction of RMSE recovered —
    sit *before* the trailing ``reused clean`` column, so ``row[4]``
    (raw RMSE) and ``row[-1]`` (reuse marker) index the same fields
    either way.
    """

    grid: list = field(default_factory=list)
    mitigated: bool = False

    def format(self) -> str:
        headers = ["engine", "sigma", "fault rate", "drift s", "RMSE",
                   "|err| p95"]
        if self.mitigated:
            headers += ["mitig RMSE", "recovered"]
        headers.append("reused clean")
        return format_table(
            "Robustness: MVM error vs device faults "
            "(full funcsim pipeline, error against the ideal FxP product)",
            headers, self.grid)


def nf_stats(config, nonideality: NonidealitySpec, n_g: int, n_v: int,
             seed: int = 13) -> list:
    """Circuit-level NF statistics under a fault composition.

    Samples ``n_g`` conductance matrices with ``n_v`` voltage vectors
    each, perturbs every matrix through the (coordinate-keyed, here
    matrix-index-keyed) pipeline, and solves the full non-linear circuit:
    the *intended* computation uses the target conductances, the hardware
    executes the perturbed ones. Returns
    ``[NF mean, NF std, relative |err| p95]`` — the row shape of the
    variation study's tables.
    """
    pipeline = NonidealityPipeline(nonideality)
    spec = SamplingSpec(n_g_matrices=n_g, n_v_per_g=n_v, seed=seed)
    voltages, conductances, groups = VgSampler(config, spec).sample()
    simulator = CrossbarCircuitSimulator(config)
    nf_all, err_all = [], []
    for g in range(n_g):
        target = conductances[g]
        actual = pipeline.perturb(target, (g,), config.g_off_s,
                                  config.g_on_s)
        rows = np.nonzero(groups == g)[0]
        i_ideal = ideal_mvm(voltages[rows], target)
        i_real = simulator.solve_batch(voltages[rows], actual, mode="full")
        mask = valid_mask(i_ideal)
        nf_all.append(nonideality_factor(i_ideal, i_real)[mask])
        err_all.append(np.abs(i_ideal - i_real)[mask]
                       / np.abs(i_ideal)[mask])
    nf = np.concatenate(nf_all)
    err = np.concatenate(err_all)
    return [float(nf.mean()), float(nf.std()),
            float(np.percentile(err, 95))]


def _sweep_operands(spec: EmulationSpec, batch: int, seed: int) -> tuple:
    """Fixed (inputs, weights) spanning at least a 2x2 tile grid."""
    rows, cols = spec.xbar.rows, spec.xbar.cols
    n_in = rows + max(1, rows // 2)
    n_out = cols + max(1, cols // 4)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, size=(batch, n_in))
    weights = rng.uniform(-0.5, 0.5, size=(n_in, n_out))
    return x, weights


def run_robustness(profile: Profile | None = None, *,
                   spec: EmulationSpec | None = None,
                   engines: tuple = DEFAULT_ENGINES,
                   sigmas: tuple = DEFAULT_SIGMAS,
                   fault_rates: tuple = DEFAULT_FAULT_RATES,
                   drift_times: tuple = DEFAULT_DRIFT_TIMES,
                   batch: int = 16, seed: int = 13,
                   mitigate: bool = False, zoo=None) -> RobustnessResult:
    """Sweep the fault grid through the full funcsim engine pipeline.

    ``spec`` fixes the crossbar design / precision / emulator recipe
    (its ``engine`` and ``nonideality`` nodes are overridden per grid
    point); without one, the active profile's DNN-accuracy setup is
    used. One fixed operand pair streams through every engine x fault
    combination, and each row reports the error of the faulty crossbar
    product against the ideal fixed-point product.

    ``mitigate=True`` adds a per-cell output calibration column: a
    disjoint calibration batch (drawn from ``seed + 1``) runs through
    the same faulty engine, a per-output-column affine correction is
    fitted against the ideal product
    (:func:`~repro.mitigation.calibration.fit_affine_correction`, ridge
    from ``spec.mitigation.calibration.ridge``), and the held-out
    operands are re-scored after correction — quantifying how much of
    each cell's systematic error calibration recovers.
    """
    if spec is None:
        profile = profile or get_profile()
        spec = profile.to_spec(engine="geniex", seed=seed)
    for engine in engines:
        if engine == "ideal":
            raise ConfigError(
                "the ideal engine has no analog state to perturb and "
                "cannot participate in a robustness sweep")
    x, weights = _sweep_operands(spec, batch, seed)
    ideal_engine = IdealMvmEngine(spec.sim.to_config())
    y_ideal = ideal_engine.matmul(x, weights)
    x_cal = y_cal_ideal = None
    if mitigate:
        # Calibration operands are disjoint from the scored batch (seed+1)
        # so the corrected RMSE is held-out, not a fit to its own target.
        cal_rng = np.random.default_rng(seed + 1)
        x_cal = cal_rng.uniform(-0.5, 0.5,
                                size=(max(batch, 32), x.shape[1]))
        y_cal_ideal = ideal_engine.matmul(x_cal, weights)

    result = RobustnessResult(mitigated=mitigate)
    grid = [(s, r, d) for s in sigmas for r in fault_rates
            for d in drift_times]
    for engine in engines:
        # Replace (not merge) the nonideality node: the engine baseline is
        # the clean crossbar even when the incoming spec carried faults.
        base = spec.evolve(engine=engine,
                           nonideality=NonidealitySpec(seed=seed))
        emulator = None
        if engine == "geniex":
            # Resolve from the *clean* spec exactly once per engine kind;
            # faulty sessions receive it directly, so conservative
            # model-key separation never retrains inside the sweep.
            emulator = resolve_emulator(base, zoo=zoo)
        # The clean solve is computed once, before the grid: every grid
        # cell whose composed transforms are the identity is then served
        # from it — the sweep's clean baseline column costs nothing.
        with open_session(base, zoo=zoo, emulator=emulator) as session:
            clean_y = session.matmul(x, weights)
            clean_y_cal = session.matmul(x_cal, weights) if mitigate \
                else None
        for sigma, rate, drift in grid:
            point = base.evolve(nonideality=nonideality_for(
                sigma=sigma, fault_rate=rate, drift_time_s=drift,
                seed=seed))
            reused = point.nonideality.is_identity
            if reused:
                y, y_cal = clean_y, clean_y_cal
            else:
                with open_session(point, zoo=zoo,
                                  emulator=emulator) as session:
                    y = session.matmul(x, weights)
                    y_cal = session.matmul(x_cal, weights) if mitigate \
                        else None
            err = np.abs(y - y_ideal)
            rmse = float(np.sqrt(np.mean(err ** 2)))
            row = [engine, f"{sigma:g}", f"{rate:g}", f"{drift:g}", rmse,
                   float(np.percentile(err, 95))]
            if mitigate:
                scale, offset = fit_affine_correction(
                    y_cal, y_cal_ideal,
                    ridge=spec.mitigation.calibration.ridge)
                mit_err = np.abs(y * scale + offset - y_ideal)
                mit_rmse = float(np.sqrt(np.mean(mit_err ** 2)))
                recovered = 1.0 - mit_rmse / rmse if rmse > 0 else 0.0
                row += [mit_rmse, f"{recovered:+.1%}"]
            row.append("yes" if reused else "no")
            result.grid.append(row)
    return result


if __name__ == "__main__":
    print(run_robustness().format())
