"""Stage-two predictor adaptation on replay data.

Starting from the stage-one linear head, training runs on the replay
buffer only, with a temperature-scaled cross-entropy loss, in one of two
modes. ``adapter`` trains a small residual bottleneck
``g(z) = z + V relu(U z)`` jointly with the head; ``V`` starts at zero,
so before the first optimizer step the adapted predictor is
function-identical to the stage-one predictor. ``full_head`` trains the
head alone on the raw embeddings; no adapter is built. Every adaptation
call restarts from the stage-one head; nothing is warm-started from a
previous adapted model.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from ._binio import Reader, Writer
from ._seeding import seeded_rng
from .errors import (
    AdaptError, ClassIdError, ConfigError, FormatError, ShapeError, from_fields,
    require_float, require_int,
)
from .learners import (
    ONE_THREAD_MULADDS, PREDICT_BLOCK_ROWS, LinearHead, NccState, RidgeState, as_int_ids,
    blocked_argmax,
)

ADAPT_MODES = ("none", "adapter", "full_head")
OPTIMIZERS = ("sgd", "adadelta")

PREDICTOR_MAGIC = b"SCAD"
PREDICTOR_VERSION = 1

@dataclass(frozen=True)
class AdaptConfig:
    """Hyper-parameters for replay adaptation.

    ``mode`` selects what is trained: nothing (``none``), the residual
    bottleneck plus head (``adapter``), or the head alone (``full_head``).
    ``threshold`` is the buffer size at which one would switch from the
    adapter to head-only tuning; the mode stays explicit and a mismatch
    only produces a warning. ``init_kind`` chooses the head
    initialization: ``auto`` converts the stage-one classifier, ``random``
    draws a fresh head from the seed.
    """

    mode: str = "none"
    epochs: int = 40
    batch_size: int = 50
    lr_head: float = 0.1
    lr_adapter: float = 0.01
    temperature: float = 2.0
    optimizer: str = "adadelta"
    rho: float = 0.95
    eps: float = 1e-6
    threshold: int = 500
    bottleneck: int | None = None
    init_kind: str = "auto"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ADAPT_MODES:
            raise ConfigError(f"unknown adapt mode {self.mode!r}, expected {ADAPT_MODES}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}, expected {OPTIMIZERS}")
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("threshold", 0)):
            require_int(getattr(self, name), f"adapt.{name}", minimum)
        require_int(self.seed, "adapt.seed")
        if self.bottleneck is not None:
            require_int(self.bottleneck, "adapt.bottleneck", minimum=1)
        for name in ("lr_head", "lr_adapter", "temperature", "rho", "eps"):
            require_float(getattr(self, name), f"adapt.{name}")
        if self.lr_head < 0 or self.lr_adapter < 0:
            raise ConfigError("learning rates must be non-negative")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0 < self.rho < 1:
            raise ConfigError(f"rho must lie in (0, 1), got {self.rho}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.init_kind not in ("auto", "random"):
            raise ConfigError(f"init_kind must be 'auto' or 'random', got {self.init_kind!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "AdaptConfig":
        return from_fields(cls, d, "adapt")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.bottleneck is None:
            del out["bottleneck"]
        return out


class AdapterParams:
    """Residual bottleneck weights plus the linear head they feed."""

    def __init__(self, down: np.ndarray, up: np.ndarray, head: LinearHead):
        down = np.ascontiguousarray(down, dtype=np.float64)
        up = np.ascontiguousarray(up, dtype=np.float64)
        if down.ndim != 2 or up.shape != (down.shape[1], down.shape[0]):
            raise ShapeError(
                f"adapter shapes disagree: down {down.shape}, up {up.shape}"
            )
        if head.dim != down.shape[1]:
            raise ShapeError(
                f"head expects dim {head.dim}, adapter works on dim {down.shape[1]}"
            )
        self.down = down
        self.up = up
        self.head = head

    @property
    def width(self) -> int:
        return self.down.shape[0]

    @property
    def dim(self) -> int:
        return self.down.shape[1]

    def copy(self) -> "AdapterParams":
        return AdapterParams(self.down.copy(), self.up.copy(), self.head.copy())


def init_adapter(head: LinearHead, width: int | None, seed: int) -> AdapterParams:
    """Fresh adapter around a head: small random down projection, zero up.

    With the up projection at zero the residual branch contributes
    nothing, so the new predictor starts exactly at the head's function.
    """
    dim = head.dim
    h = max(1, dim // 4) if width is None else int(width)
    scale = 1.0 / np.sqrt(dim)
    down = seeded_rng(seed, 31).uniform(-scale, scale, size=(h, dim))
    return AdapterParams(down, np.zeros((dim, h)), head.copy())


def init_head(
    kind: str,
    state: NccState | RidgeState | None = None,
    *,
    class_count: int | None = None,
    dim: int | None = None,
    seed: int = 0,
) -> LinearHead:
    """Build the head that adaptation starts from.

    ``random`` draws entries i.i.d. uniform in [-1/sqrt(d), 1/sqrt(d)]
    with zero biases; ``ncc`` converts prototype statistics; ``ridge``
    solves the accumulated system.
    """
    if kind == "random":
        if class_count is None or dim is None:
            raise AdaptError("random head initialization needs class_count and dim")
        scale = 1.0 / np.sqrt(dim)
        weights = seeded_rng(seed, 32).uniform(-scale, scale, size=(class_count, dim))
        return LinearHead(weights, np.zeros(class_count))
    if kind == "ncc":
        if not isinstance(state, NccState):
            raise AdaptError("ncc head initialization needs prototype statistics")
        return state.to_linear_head()
    if kind == "ridge":
        if not isinstance(state, RidgeState):
            raise AdaptError("ridge head initialization needs ridge statistics")
        return state.solve()
    raise ConfigError(f"unknown head initialization {kind!r}")


def forward(params: AdapterParams, zs) -> tuple[np.ndarray, dict]:
    """Adapter + head forward pass.

    Returns the logits and the intermediate activations needed by
    :func:`loss_and_grads`. Accepts a single row or a batch.
    """
    zs = np.asarray(zs, dtype=np.float64)
    single = zs.ndim == 1
    if single:
        zs = zs[None, :]
    if zs.ndim != 2 or zs.shape[1] != params.dim:
        raise ShapeError(f"expected rows of dimension {params.dim}, got {zs.shape}")
    act = np.maximum(zs @ params.down.T, 0.0)
    # In-place sums: no extra (n, d) or (n, k) temporary at prediction time.
    feat = act @ params.up.T
    feat += zs
    logits = feat @ params.head.weights.T
    logits += params.head.biases
    cache = {"zs": zs, "act": act, "feat": feat}
    return (logits[0] if single else logits), cache


def loss_and_grads(
    params: AdapterParams | LinearHead, zs, ys, temperature: float, out=None
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean temperature-scaled cross-entropy and its exact gradients.

    The loss is ``mean(-log softmax(logits / temperature)[y])`` over the
    batch. Gradients are returned for the head (``weights``, ``biases``)
    and, when ``params`` is an adapter, for its projections (``down``,
    ``up``). A bare :class:`LinearHead` scores the raw embeddings.
    ``out`` optionally maps gradient names to arrays of the gradients'
    shapes; those gradients are written into them and returned there.
    """
    ys = as_int_ids(ys, "labels")
    if ys.ndim != 1 or ys.shape[0] == 0:
        raise ConfigError("batch must contain at least one sample")
    if isinstance(params, LinearHead):
        head, cache = params, None
        feat = np.atleast_2d(np.asarray(zs, dtype=np.float64))
        logits = head.scores(feat)
    else:
        head = params.head
        logits, cache = forward(params, zs)
        logits, feat = np.atleast_2d(logits), cache["feat"]
    if ys.shape[0] != logits.shape[0]:
        raise ShapeError("labels and batch rows disagree in length")
    batch = len(ys)
    try:
        # Flat positions of the label logits, so one index gathers them.
        label_pos = np.ravel_multi_index((np.arange(batch), ys), logits.shape)
    except ValueError:
        raise ClassIdError(f"labels must lie in [0, {logits.shape[1]})") from None
    # The logits are a fresh array, so they are scaled in place; one more
    # fresh array holds the exponentials, then the probabilities.
    scaled = logits
    scaled /= temperature
    scaled -= scaled.max(axis=1, keepdims=True)
    dlogits = np.exp(scaled)
    log_z = np.log(dlogits.sum(axis=1))
    loss = float(np.add.reduce(log_z - scaled.ravel()[label_pos]) / batch)

    np.subtract(scaled, log_z[:, None], out=dlogits)
    np.exp(dlogits, out=dlogits)
    dlogits.ravel()[label_pos] -= 1.0
    dlogits /= batch * temperature

    out = {} if out is None else out
    grads = {
        "weights": np.matmul(dlogits.T, feat, out=out.get("weights")),
        "biases": np.add.reduce(dlogits, axis=0, out=out.get("biases")),
    }
    if cache is not None:
        d_feat = dlogits @ head.weights
        grads["up"] = np.matmul(d_feat.T, cache["act"], out=out.get("up"))
        d_pre = (d_feat @ params.up) * (cache["act"] > 0.0)
        grads["down"] = np.matmul(d_pre.T, cache["zs"], out=out.get("down"))
    return loss, grads


def adadelta_step(
    param: np.ndarray,
    grad: np.ndarray,
    accum_grad_sq: np.ndarray,
    accum_step_sq: np.ndarray,
    rho: float,
    eps: float,
    lr: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One accumulate-and-rescale update.

    Keeps decayed averages of squared gradients and squared steps; the
    step is the gradient rescaled by the root ratio of the two averages,
    which makes early update magnitudes insensitive to gradient scale.
    Returns the new parameter and both updated accumulators.
    """
    if not 0 < rho < 1:
        raise ConfigError(f"rho must lie in (0, 1), got {rho}")
    param, grad_sq, step_sq = (
        np.array(a, dtype=np.float64) for a in (param, accum_grad_sq, accum_step_sq)
    )
    _adadelta_update(
        param, np.asarray(grad, dtype=np.float64), grad_sq, step_sq,
        np.empty_like(param), np.empty_like(param), rho, eps, lr,
    )
    return param, grad_sq, step_sq


def _adadelta_update(param, grad, grad_sq, step_sq, tmp, tmp2, rho, eps, lr) -> None:
    """:func:`adadelta_step` in place: ``param`` and both accumulators are overwritten.

    ``tmp`` and ``tmp2`` are scratch arrays shaped like ``param``. The
    operations and their order are those of the textbook form
    ``grad_sq = rho*grad_sq + (1-rho)*grad*grad``,
    ``step = -sqrt(step_sq + eps) / sqrt(grad_sq + eps) * grad``,
    ``step_sq = rho*step_sq + (1-rho)*step*step``, ``param + lr*step``,
    so the results are bit-identical to evaluating it with temporaries.
    """
    np.multiply(1.0 - rho, grad, out=tmp)
    tmp *= grad
    np.multiply(rho, grad_sq, out=grad_sq)
    grad_sq += tmp
    np.add(step_sq, eps, out=tmp)
    np.sqrt(tmp, out=tmp)
    np.negative(tmp, out=tmp)
    np.add(grad_sq, eps, out=tmp2)
    np.sqrt(tmp2, out=tmp2)
    tmp /= tmp2
    tmp *= grad
    np.multiply(1.0 - rho, tmp, out=tmp2)
    tmp2 *= tmp
    np.multiply(rho, step_sq, out=step_sq)
    step_sq += tmp2
    np.multiply(lr, tmp, out=tmp)
    param += tmp


class AdaptedPredictor:
    """Final predictor: an optional embedding adapter feeding a linear head."""

    def __init__(
        self,
        head: LinearHead,
        adapter: AdapterParams | None = None,
        provenance: dict | None = None,
        curve: list[tuple[int, float, float]] | None = None,
        warnings: list[str] | None = None,
    ):
        self.head = head
        self.adapter = adapter
        self.provenance = provenance or {}
        self.curve = curve or []
        self.warnings = warnings or []

    def predict_batch(self, zs) -> np.ndarray:
        """Argmax class of every row, scored ``PREDICT_BLOCK_ROWS`` rows at a time."""
        zs = np.asarray(zs, dtype=np.float64)
        if zs.ndim != 2:
            raise ShapeError(f"expected a 2-d batch of queries, got shape {zs.shape}")
        return blocked_argmax(self._scores, zs)

    def _scores(self, zs: np.ndarray) -> np.ndarray:
        if self.adapter is None:
            return self.head.scores(zs)
        return forward(self.adapter, zs)[0]

    def predict(self, z) -> int:
        return int(self.predict_batch(np.asarray(z, dtype=np.float64)[None, :])[0])


def adapt(
    init: LinearHead, buffer, cfg: AdaptConfig, init_kind: str = "auto"
) -> AdaptedPredictor:
    """Train a predictor on the replay buffer, starting from ``init``.

    ``none`` returns the head untouched. ``adapter`` trains the residual
    bottleneck and the head with separate learning rates; ``full_head``
    trains the head only. Minibatches are drawn without replacement with
    seeded shuffling, so the result is a pure function of its inputs.
    """
    zs, ys = buffer.training_arrays()
    if zs.shape[0] == 0:
        raise AdaptError("replay buffer is empty; nothing to adapt on")
    provenance = {"init": init_kind, "buffer": buffer.content_digest()}
    warnings: list[str] = []
    stored = zs.shape[0]
    if cfg.mode == "adapter" and stored > cfg.threshold:
        warnings.append(
            f"buffer holds {stored} > threshold {cfg.threshold}; "
            "head-only tuning would normally take over"
        )
    elif cfg.mode == "full_head" and stored <= cfg.threshold:
        warnings.append(
            f"buffer holds {stored} <= threshold {cfg.threshold}; "
            "the adapter would normally be used"
        )
    if cfg.mode == "none":
        return AdaptedPredictor(init.copy(), provenance=provenance, warnings=warnings)

    # Every trained tensor is a view of one flat array: the head group
    # (weights, biases) at lr_head, then in adapter mode the adapter group
    # (down, up) at lr_adapter. The updates are elementwise, so one call per
    # group gives each element the operations a call per tensor would.
    adapter = init_adapter(init, cfg.bottleneck, cfg.seed) if cfg.mode == "adapter" else None
    tensors = [init.weights, init.biases]
    if adapter is not None:
        tensors += [adapter.down, adapter.up]
    shapes = [t.shape for t in tensors]
    flat = np.concatenate([t.ravel() for t in tensors])
    weights, biases, *projections = _views(flat, shapes)
    head = LinearHead(weights, biases)
    if adapter is not None:
        adapter = AdapterParams(*projections, head)
    params = adapter or head
    flat_grad = np.empty_like(flat)
    grads_out = dict(zip(("weights", "biases", "down", "up"), _views(flat_grad, shapes)))
    split = init.weights.size + init.biases.size
    rates = [(slice(0, split), cfg.lr_head)]
    if adapter is not None:
        rates.append((slice(split, None), cfg.lr_adapter))
    # Per group: parameters, gradients, both AdaDelta accumulators, two
    # scratch arrays, then the learning rate.
    buffers = (flat, flat_grad, np.zeros_like(flat), np.zeros_like(flat),
               np.empty_like(flat), np.empty_like(flat))
    groups = [tuple(b[part] for b in buffers) + (rate,) for part, rate in rates]

    # The per-epoch buffer check scores in slices whose largest product
    # (d x max(K, h) per row) stays on one OpenBLAS thread; a woken second
    # thread would spin through the small training steps that follow.
    widest = max(init.class_count, adapter.width if adapter is not None else 0)
    check_rows = min(PREDICT_BLOCK_ROWS, max(1, ONE_THREAD_MULADDS // (init.dim * widest)))
    rng = seeded_rng(cfg.seed, 33)
    curve: list[tuple[int, float, float]] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(stored)
        epoch_loss = 0.0
        for lo in range(0, stored, cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            loss, _ = loss_and_grads(params, zs[sel], ys[sel], cfg.temperature, grads_out)
            epoch_loss += loss * len(sel)
            for param, grad, grad_sq, step_sq, tmp, tmp2, rate in groups:
                if cfg.optimizer == "sgd":
                    param -= rate * grad
                else:
                    _adadelta_update(
                        param, grad, grad_sq, step_sq, tmp, tmp2, cfg.rho, cfg.eps, rate
                    )
        # Re-validating the head here raises DataError once training diverges.
        predictor = AdaptedPredictor(LinearHead(head.weights, head.biases), adapter)
        buffer_acc = float(np.mean(blocked_argmax(predictor._scores, zs, check_rows) == ys))
        curve.append((epoch, epoch_loss / stored, buffer_acc))

    return AdaptedPredictor(
        predictor.head, adapter, provenance=provenance, curve=curve, warnings=warnings
    )


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one per shape."""
    views, lo = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[lo:lo + size].reshape(shape))
        lo += size
    return views


def write_training_curve(curve, path) -> None:
    """Emit per-epoch training progress as ``epoch,loss,buffer_acc``."""
    with open(path, "w", newline="") as fh:
        fh.write("epoch,loss,buffer_acc\n")
        for epoch, loss, acc in curve:
            fh.write(f"{epoch},{loss!r},{acc!r}\n")


def save_predictor(pred: AdaptedPredictor, path) -> None:
    """Write an adapted-predictor checkpoint (magic ``SCAD``)."""
    w = Writer()
    w.raw(PREDICTOR_MAGIC)
    k, d = pred.head.weights.shape
    h = pred.adapter.width if pred.adapter is not None else 0
    w.pack("HBIII", PREDICTOR_VERSION, 1 if pred.adapter else 0, k, d, h)
    w.array(pred.head.weights, "<f8")
    w.array(pred.head.biases, "<f8")
    if pred.adapter is not None:
        w.array(pred.adapter.down, "<f8")
        w.array(pred.adapter.up, "<f8")
    blob = json.dumps(pred.provenance, sort_keys=True).encode()
    w.pack("I", len(blob))
    w.raw(blob)
    with open(path, "wb") as fh:
        fh.write(w.getvalue())


def load_predictor(path) -> AdaptedPredictor:
    """Read back a checkpoint written by :func:`save_predictor`."""
    with open(path, "rb") as fh:
        r = Reader(fh.read())
    r.expect_magic(PREDICTOR_MAGIC)
    version, has_adapter, k, d, h = r.unpack("HBIII", "predictor header")
    if version != PREDICTOR_VERSION:
        raise FormatError(f"unsupported predictor version {version}")
    weights = r.array("<f8", k * d, "head weights").reshape(k, d).copy()
    biases = r.array("<f8", k, "head biases").copy()
    head = LinearHead(weights, biases)
    adapter = None
    if has_adapter:
        down = r.array("<f8", h * d, "down projection").reshape(h, d).copy()
        up = r.array("<f8", d * h, "up projection").reshape(d, h).copy()
        adapter = AdapterParams(down, up, head)
    (blob_len,) = r.unpack("I", "provenance length")
    provenance = json.loads(r.take(blob_len, "provenance"))
    r.expect_end()
    return AdaptedPredictor(head, adapter, provenance=provenance)
