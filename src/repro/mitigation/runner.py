"""Spec-addressed mitigation runs: train, calibrate, persist, measure.

:func:`run_mitigation` executes the recipe a spec's ``mitigation`` node
describes against that spec's (possibly faulty) engine:

1. resolve the dataset (a content-addressable handle from
   :mod:`repro.datasets.handles`, or raw arrays),
2. noise-injection-train a classifier — optionally hardware in the loop
   through the session's engine (``mitigation.noise.hardware``),
3. convert it onto the session's engine and, when configured, fit the
   output calibration on the head of the training split,
4. persist the trained weights + fitted calibration as one zoo artifact
   under :func:`mitigated_key` (full spec identity × dataset × model
   architecture — mitigated artifacts can never alias raw models or each
   other), and
5. report accuracies: the float model, the mitigated serving model, and
   (optionally) the unmitigated baseline — the same architecture trained
   clean and run on the same faulty engine uncorrected — so every run
   quantifies what the mitigation bought.

Lives outside ``repro.mitigation.__init__``'s import surface because it
imports :mod:`repro.api` (which imports ``repro.mitigation.spec``);
import it as ``repro.mitigation.runner`` or go through
``Session.mitigate`` / the serve endpoint / the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.session import Session
from repro.api.spec import EmulationSpec
from repro.core.zoo import GeniexZoo
from repro.datasets.handles import normalise_handle, resolve_handle
from repro.errors import ConfigError
from repro.mitigation.calibration import CalibratedModel, \
    fit_output_calibration
from repro.mitigation.noise_training import NoiseSpec, train_with_noise
from repro.models import MLP
from repro.nn.losses import accuracy
from repro.nn.modules import Module
from repro.nn.tensor import Tensor, no_grad
from repro.utils.digest import content_key


def _dataset_identity(data) -> dict:
    """Digest-ready identity of a dataset argument.

    Handles normalise to their canonical field dict; raw array tuples
    fold to a content digest, so inline data keys just as stably as a
    named handle (only less readably).
    """
    if isinstance(data, (str, dict)):
        return normalise_handle(data)
    x_tr, y_tr, x_te, y_te = data
    return {"inline": content_key(
        "ds", np.asarray(x_tr), np.asarray(y_tr), np.asarray(x_te),
        np.asarray(y_te))}


def mitigated_key(spec: EmulationSpec, data, hidden=(32,),
                  model_seed: int = 0, model: Module | None = None) -> str:
    """Content key of one mitigated-model artifact.

    Folds the full engine-behaviour digest ``spec.key()`` (which already
    carries the mitigation and non-ideality nodes), the dataset identity
    and the classifier architecture. A pretrained ``model`` keys by its
    initial state digest instead of (hidden, seed) — whatever weights
    went in, not how they might have been made.
    """
    if spec.mitigation.is_identity:
        raise ConfigError(
            "spec.mitigation is the identity; there is no mitigated "
            "artifact to key — set mitigation.noise.epochs or "
            "mitigation.calibration.samples")
    if model is not None:
        arch = {"pretrained": content_key(
            "", {k: np.asarray(v.data if isinstance(v, Tensor) else v)
                 for k, v in sorted(model.state_dict().items())})}
    else:
        arch = {"hidden": [int(h) for h in hidden],
                "model_seed": int(model_seed)}
    return content_key("mit", spec.key(),
                       {"dataset": _dataset_identity(data), **arch})


@dataclass
class MitigationResult:
    """One finished (or cache-loaded) mitigation run."""

    key: str
    spec: EmulationSpec
    sizes: tuple
    model: Module            #: float model with the trained clean weights
    serving: Module          #: engine-converted model, calibration applied
    history: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    from_cache: bool = False

    def predict(self, x) -> np.ndarray:
        """Mitigated logits for a batch (through the session engine)."""
        with no_grad():
            return np.asarray(self.serving(Tensor(np.atleast_2d(x))).data,
                              dtype=np.float64)


def _resolve_data(data) -> tuple:
    if isinstance(data, (str, dict)):
        return resolve_handle(data)
    if not isinstance(data, (tuple, list)) or len(data) != 4:
        raise ConfigError(
            "data must be a dataset handle (name or dict) or a "
            "(x_train, y_train, x_test, y_test) tuple")
    return tuple(np.asarray(part) for part in data)


def _infer_sizes(x_train, y_train, y_test, hidden) -> tuple:
    features = int(np.prod(x_train.shape[1:]))
    classes = int(max(int(y_train.max()), int(y_test.max()))) + 1
    return (features, *[int(h) for h in hidden], classes)


def _accuracy(model: Module, x, y) -> float:
    with no_grad():
        return float(accuracy(model(Tensor(x)).data, y))


def run_mitigation(spec: EmulationSpec, data, *, hidden=(32,),
                   model_seed: int = 0, model: Module | None = None,
                   zoo: GeniexZoo | None = None,
                   session: Session | None = None, baseline: bool = True,
                   progress: bool = False) -> MitigationResult:
    """Execute a spec's mitigation recipe end to end (cached by digest).

    ``data`` is a dataset handle (``"blobs"`` / handle dict) or raw
    ``(x_train, y_train, x_test, y_test)`` arrays. ``model`` supplies a
    pretrained classifier for calibration-only recipes
    (``noise.epochs == 0``); otherwise an :class:`~repro.models.MLP` of
    ``(features, *hidden, classes)`` is trained from ``model_seed``.

    A previously persisted artifact under the same :func:`mitigated_key`
    is rebuilt from the zoo instead of retrained (``from_cache=True``;
    metrics and history come from the stored record). Without a
    ``session`` one is opened for the spec; the returned serving model
    runs on its engine.
    """
    mitigation = spec.mitigation
    if mitigation.is_identity:
        raise ConfigError(
            "spec.mitigation is the identity; set mitigation.noise.epochs "
            "or mitigation.calibration.samples to run a mitigation")
    if mitigation.noise.is_identity and model is None:
        raise ConfigError(
            "calibration-only mitigation (noise.epochs == 0) needs a "
            "pretrained model= to calibrate")
    key = mitigated_key(spec, data, hidden=hidden, model_seed=model_seed,
                        model=model)
    x_train, y_train, x_test, y_test = _resolve_data(data)
    if model is not None:
        sizes = tuple(getattr(model, "sizes", ()))
    else:
        sizes = _infer_sizes(x_train, y_train, y_test, hidden)

    if session is None:
        session = Session(spec, zoo=zoo, progress=progress)
    zoo = session.zoo or zoo or GeniexZoo()
    cached = zoo.load_mitigated(key)
    if cached is not None and model is None:
        state, meta = cached
        rebuilt = MLP(tuple(meta["sizes"]), seed=model_seed)
        rebuilt.load_state_dict(
            {k[len("model::"):]: v for k, v in state.items()
             if k.startswith("model::")})
        rebuilt.eval()
        serving = session.compile(rebuilt)
        if meta.get("calibrated"):
            serving = CalibratedModel(serving,
                                      state["calibration::scale"],
                                      state["calibration::offset"])
        return MitigationResult(
            key=key, spec=spec, sizes=tuple(meta["sizes"]),
            model=rebuilt, serving=serving,
            history=list(meta.get("history", [])),
            metrics=dict(meta.get("metrics", {})), from_cache=True)

    noise = mitigation.noise
    history: list = []
    if model is None:
        model = MLP(sizes, seed=model_seed)
    if not noise.is_identity:
        history = train_with_noise(
            model, x_train, y_train,
            NoiseSpec(weight_sigma=noise.weight_sigma,
                      activation_sigma=noise.activation_sigma,
                      include_1d=noise.include_1d),
            epochs=noise.epochs, batch_size=noise.batch_size,
            lr=noise.lr, seed=mitigation.seed, verbose=progress,
            engine=session.engine if noise.hardware else None,
            chunk_rows=spec.runtime.chunk_rows)
    model.eval()
    serving = session.compile(model)

    calibration = mitigation.calibration
    scale = offset = None
    if not calibration.is_identity:
        if calibration.samples > len(x_train):
            raise ConfigError(
                f"mitigation.calibration.samples = "
                f"{calibration.samples} exceeds the training split "
                f"({len(x_train)} samples)")
        x_cal = x_train[:calibration.samples]
        serving = fit_output_calibration(
            serving, model, x_cal, batch=calibration.batch,
            ridge=calibration.ridge)
        scale, offset = serving.scale, serving.offset

    metrics = {
        "float_accuracy": _accuracy(model, x_test, y_test),
        "mitigated_accuracy": _accuracy(serving, x_test, y_test),
    }
    if baseline:
        reference = MLP(sizes, seed=model_seed)
        train_with_noise(
            reference, x_train, y_train, NoiseSpec(0.0, 0.0),
            epochs=max(noise.epochs, 1), batch_size=noise.batch_size,
            lr=noise.lr, seed=mitigation.seed)
        metrics["baseline_accuracy"] = _accuracy(
            session.compile(reference), x_test, y_test)

    state = {f"model::{k}": np.asarray(v.data if isinstance(v, Tensor)
                                       else v)
             for k, v in model.state_dict().items()}
    if scale is not None:
        state["calibration::scale"] = np.asarray(scale)
        state["calibration::offset"] = np.asarray(offset)
    meta = {"sizes": list(sizes), "model_seed": int(model_seed),
            "dataset": _dataset_identity(data),
            "calibrated": scale is not None,
            "history": [float(h) for h in history],
            "metrics": metrics}
    zoo.save_mitigated(key, state, meta)
    return MitigationResult(key=key, spec=spec, sizes=sizes,
                            model=model, serving=serving,
                            history=history, metrics=metrics)
