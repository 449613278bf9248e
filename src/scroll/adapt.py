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

A call checks its buffer arrays once and prepares everything an epoch
reads; every epoch then runs from that plan. Each minibatch takes one
private step, whose label gradient subtracts a one-hot block, and one
optimizer pass over all trained parameters, with AdaDelta's squared-step
update deferred into the next step's decay. The step's arguments are
views of arrays allocated once per call (minibatches of one size share
the views that depend only on that size), so a step allocates nothing.
Rows are gathered a few whole minibatches at a time, so memory stays at
O(256 (d + K)) beyond the buffer and O(n) vectors; the epoch loss is
summed from per-row terms at the end of the epoch, in the order the
per-batch means would have been added. After each epoch one finiteness
pass checks every parameter, and the buffer is scored into prepared
blocks with the products a prediction makes; the predictor is built once,
after the last epoch.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._binio import Reader, Writer
from ._seeding import seeded_rng
from .errors import (
    AdaptError, ConfigError, DataError, FormatError, ShapeError, all_finite, from_fields,
    require_float, require_int,
)
from .learners import (
    ONE_THREAD_MULADDS, PREDICT_BLOCK_ROWS, LinearHead, NccState, RidgeState, blocked_argmax,
    check_batch, check_rows,
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
        if not (all_finite(down) and all_finite(up)):
            raise DataError("adapter parameters contain non-finite values")
        self.down = down
        self.up = up
        self.head = head

    @property
    def width(self) -> int:
        return self.down.shape[0]

    @property
    def dim(self) -> int:
        return self.down.shape[1]


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


def forward(params: AdapterParams, zs) -> np.ndarray:
    """Adapter + head forward pass: the logits of a 2-d batch of rows."""
    return _logits(params, check_rows(zs, params.dim))


def _logits(params: AdapterParams, zs: np.ndarray) -> np.ndarray:
    """:func:`forward` of rows already checked by :func:`check_rows`."""
    n = zs.shape[0]
    hidden = (params.down.T, params.up.T, np.empty((n, params.width)), np.empty((n, params.dim)))
    logits = np.empty((n, params.head.class_count))
    return _scores_into(zs, params.head.weights.T, params.head.biases, logits, hidden)


def _scores_into(zs, weights_t, biases, out, hidden=None) -> np.ndarray:
    """The logits of checked rows ``zs`` written into ``out``, which is returned.

    ``weights_t`` is the head's transposed weights. ``hidden`` is ``None``
    for a bare head; with an adapter it is ``(down.T, up.T, act, feat)``,
    the transposed projections and hidden and feature arrays shaped for
    ``zs``. Every sum is in place, so no (n, d) or (n, K) temporary is made.
    """
    feat = zs
    if hidden is not None:
        down_t, up_t, act, feat = hidden
        np.matmul(zs, down_t, out=act)
        np.maximum(act, 0.0, out=act)
        np.matmul(act, up_t, out=feat)
        feat += zs
    np.matmul(feat, weights_t, out=out)
    out += biases
    return out


def _step(zs, hot, logits, log_z, dlogits, dlogits_t, row_max, scale, temperature,
          weights, weights_t, biases, grad_weights, grad_biases, adapter) -> None:
    """Forward and backward pass of one checked minibatch, into given arrays.

    ``hot`` is the ``(rows, K)`` one-hot block (float or bool) of the rows'
    labels. ``logits`` receives the temperature-scaled logits less their
    row maximum and the ``(rows, 1)`` column ``log_z`` each row's
    log-normalizer, so the loss of row ``i`` is ``log_z[i]`` less its label
    logit. ``dlogits`` (with its transpose) and ``row_max`` are scratch, and
    ``scale`` is ``rows * temperature``. The head's gradients go to
    ``grad_weights`` and ``grad_biases``. ``adapter`` is ``None`` for a bare
    head; otherwise :func:`_step_args` lays out the projections, the
    minibatch's hidden, feature and backward scratch, and the arrays that
    receive the projections' gradients.
    """
    if adapter is None:
        feat = zs
    else:
        (down_t, up, up_t, act, feat, d_feat, d_feat_t, d_pre, d_pre_t, mask,
         grad_down, grad_up) = adapter
        np.matmul(zs, down_t, out=act)
        np.maximum(act, 0.0, out=act)
        np.matmul(act, up_t, out=feat)
        feat += zs
    np.matmul(feat, weights_t, out=logits)
    logits += biases
    logits /= temperature
    np.maximum.reduce(logits, axis=1, keepdims=True, out=row_max)
    logits -= row_max
    np.exp(logits, out=dlogits)
    np.add.reduce(dlogits, axis=1, keepdims=True, out=log_z)
    np.log(log_z, out=log_z)

    np.subtract(logits, log_z, out=dlogits)
    np.exp(dlogits, out=dlogits)
    # Off the label, p - 0.0 is p, so this is the label entries' -= 1.
    dlogits -= hot
    dlogits /= scale
    np.matmul(dlogits_t, feat, out=grad_weights)
    np.add.reduce(dlogits, axis=0, out=grad_biases)
    if adapter is not None:
        np.matmul(dlogits, weights, out=d_feat)
        np.matmul(d_feat_t, act, out=grad_up)
        np.matmul(d_feat, up, out=d_pre)
        np.greater(act, 0.0, out=mask)
        d_pre *= mask
        np.matmul(d_pre_t, zs, out=grad_down)


def _step_args(sizes, temperature: float, tensors, grads) -> dict[int, tuple]:
    """Per minibatch size, the arguments of :func:`_step` after a minibatch's own four.

    ``tensors`` are the trained arrays (weights, biases and, with an
    adapter, down and up) and ``grads`` the arrays that receive their
    gradients, in that order. The scratch is allocated once, for the
    largest size, and every size gets views of it, which all minibatches of
    that size share.
    """
    weights, biases, *projections = tensors
    (classes, dim), rows = weights.shape, max(sizes)
    scratch = [np.empty((rows, classes)), np.empty((rows, 1))]
    if projections:
        width = projections[0].shape[0]
        scratch += [np.empty((rows, width)), np.empty((rows, dim)), np.empty((rows, dim)),
                    np.empty((rows, width)), np.empty((rows, width), dtype=bool)]
    args = {}
    for size in sizes:
        dlogits, row_max, *hidden = (array[:size] for array in scratch)
        adapter = None
        if projections:
            down, up = projections
            act, feat, d_feat, d_pre, mask = hidden
            adapter = (down.T, up, up.T, act, feat, d_feat, d_feat.T, d_pre, d_pre.T, mask,
                       *grads[2:])
        args[size] = (dlogits, dlogits.T, row_max, size * temperature, temperature,
                      weights, weights.T, biases, *grads[:2], adapter)
    return args


def loss_and_grads(
    params: AdapterParams | LinearHead, zs, ys, temperature: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean temperature-scaled cross-entropy and its exact gradients.

    The loss is ``mean(-log softmax(logits / temperature)[y])`` over the
    batch. Gradients are returned for the head (``weights``, ``biases``)
    and, when ``params`` is an adapter, for its projections (``down``,
    ``up``). A bare :class:`LinearHead` scores the raw embeddings.
    """
    head = params if isinstance(params, LinearHead) else params.head
    zs, ys = check_batch(zs, ys, params.dim, head.class_count)
    batch = len(ys)
    if not batch:
        raise ConfigError("batch must contain at least one sample")
    tensors = [head.weights, head.biases]
    if head is not params:
        tensors += [params.down, params.up]
    grads = [np.empty_like(tensor) for tensor in tensors]
    logits, log_z = np.empty((batch, head.class_count)), np.empty((batch, 1))
    hot = ys[:, None] == np.arange(head.class_count)
    _step(zs, hot, logits, log_z, *_step_args([batch], temperature, tensors, grads)[batch])
    loss = float(np.add.reduce(log_z[:, 0] - logits[hot]) / batch)
    return loss, dict(zip(("weights", "biases", "down", "up"), grads))


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
    grad = np.asarray(grad, dtype=np.float64)
    grad_sq = rho * np.asarray(accum_grad_sq, dtype=np.float64) + (1.0 - rho) * grad * grad
    step_sq = np.asarray(accum_step_sq, dtype=np.float64)
    step = np.sqrt(step_sq + eps) / np.sqrt(grad_sq + eps) * grad
    step_sq = rho * step_sq + (1.0 - rho) * step * step
    return np.asarray(param, dtype=np.float64) - lr * step, grad_sq, step_sq


def _sgd_pass(param, grad, tmp, lr) -> None:
    """``param -= lr * grad`` in place, with ``tmp`` as scratch shaped like ``param``."""
    np.multiply(lr, grad, out=tmp)
    param -= tmp


def _adadelta_pass(param, pending, accums, work, grad, step, root_grad, root_step,
                   rho, keep, eps, lr) -> None:
    """One AdaDelta step on ``param`` in place, with the squared-step update deferred.

    ``pending`` stacks this step's gradient (row 0, ``grad``) and the
    previous step (row 1, ``step``, zero before the first). ``accums`` stacks
    the squared-gradient average and the squared-step average as of the step
    before, so one decay updates the first for this step and the second for
    the previous one; ``work`` is scratch shaped like them, with rows
    ``root_grad`` and ``root_step``, and ``keep`` is ``1 - rho``. ``step``
    then receives this step, ``sqrt(step_sq + eps) / sqrt(grad_sq + eps) * grad``,
    and ``param`` loses ``lr`` times it; ``lr`` is a scalar or one rate per
    element. Each element sees the operations of :func:`adadelta_step` in
    its order, so the parameters are bit-identical to a call of it per step.
    Only the last step's square is never added, which no caller reads.
    """
    np.multiply(keep, pending, out=work)
    work *= pending
    accums *= rho
    accums += work
    np.add(accums, eps, out=work)
    np.sqrt(work, out=work)
    np.divide(root_step, root_grad, out=step)
    step *= grad
    np.multiply(lr, step, out=root_grad)
    param -= root_grad


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
        return blocked_argmax(self._scores, check_rows(zs, self.head.dim))

    def _scores(self, zs: np.ndarray) -> np.ndarray:
        if self.adapter is None:
            return self.head.scores(zs)
        return _logits(self.adapter, zs)


def adapt(
    init: LinearHead, buffer, cfg: AdaptConfig, init_kind: str = "auto"
) -> AdaptedPredictor:
    """Train a predictor on the replay buffer, starting from ``init``.

    ``none`` returns the head untouched. ``adapter`` trains the residual
    bottleneck and the head with separate learning rates; ``full_head``
    trains the head only. Minibatches are drawn without replacement with
    seeded shuffling, so the result is a pure function of its inputs.

    The buffer arrays are checked once, by :func:`check_batch`, before
    any mode runs. The call then prepares every array and view an epoch
    reads. Each epoch gathers its rows into one preallocated block of whole
    minibatches (at most ``PREDICT_BLOCK_ROWS`` rows, or one larger
    minibatch) at a time and runs each minibatch through the step
    :func:`loss_and_grads` uses, so results are those of a per-batch
    ``loss_and_grads`` loop bit for bit. It then checks the parameters and
    the loss, and scores the buffer in prepared blocks with the products
    a ``predict_batch`` of its parameters makes.
    """
    zs, ys = buffer.training_arrays()
    if zs.shape[0] == 0:
        raise AdaptError("replay buffer is empty; nothing to adapt on")
    zs, ys = check_batch(zs, ys, init.dim, init.class_count)
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

    # Every trained tensor is a view of one flat array: the head (weights,
    # biases) at lr_head, then in adapter mode the adapter (down, up) at
    # lr_adapter. The updates are elementwise, so one pass over the flat
    # array, with a rate per element in adapter mode, gives each element
    # the operations a call per tensor would.
    tensors = [init.weights, init.biases]
    if cfg.mode == "adapter":
        fresh = init_adapter(init, cfg.bottleneck, cfg.seed)
        tensors += [fresh.down, fresh.up]
        del fresh  # its head copy is not trained
    shapes = [t.shape for t in tensors]
    flat = np.concatenate([t.ravel() for t in tensors])
    tensors = _views(flat, shapes)
    weights, biases, *projections = tensors
    split = weights.size + biases.size
    rate = cfg.lr_head
    if projections:
        rate = np.repeat([cfg.lr_head, cfg.lr_adapter], [split, flat.size - split])
    # Row 0 receives the gradients; row 1 holds AdaDelta's previous step.
    pending, work = np.zeros((2, flat.size)), np.empty((2, flat.size))
    grads = _views(pending[0], shapes)
    if cfg.optimizer == "sgd":
        update, update_args = _sgd_pass, (flat, pending[0], work[0], rate)
    else:
        update = _adadelta_pass
        update_args = (flat, pending, np.zeros_like(pending), work, *pending, *work,
                       cfg.rho, 1.0 - cfg.rho, cfg.eps, rate)

    # An epoch's rows are gathered one chunk of whole minibatches at a time.
    # The plan holds, per chunk, its share of the epoch, its blocks and the
    # arguments of each of its steps: views built once per call. Chunks of
    # one size share their step tuples, and minibatches of one size the
    # arguments that depend only on that size, so they take O(chunk) memory.
    # Row i of an epoch sits at flat position (i % chunk) * K + label of
    # its chunk's logits and one-hot blocks.
    classes, dim, batch = init.class_count, init.dim, min(cfg.batch_size, stored)
    width = projections[0].shape[0] if projections else 0
    chunk = min(stored, batch * max(1, PREDICT_BLOCK_ROWS // batch))
    rows, hot, logits = (np.empty((chunk, size)) for size in (dim, classes, classes))
    log_z, terms = np.empty((chunk, 1)), np.empty(stored)
    tails = _step_args({batch, stored % batch} - {0}, cfg.temperature, tensors, grads)
    plan, steps = [], {}
    for start in range(0, stored, chunk):
        size = min(chunk, stored - start)
        if size not in steps:
            steps[size] = [
                (rows[lo:hi], hot[lo:hi], logits[lo:hi], log_z[lo:hi], *tails[hi - lo])
                for lo, hi in ((lo, min(lo + batch, size)) for lo in range(0, size, batch))
            ]
        part = slice(start, start + size)
        plan.append((part, rows[:size], hot[:size].ravel(), logits[:size].ravel(),
                     log_z[:size, 0], terms[part], steps[size]))
    chunk_offsets = np.arange(stored) % chunk * classes
    whole = stored - stored % batch
    batch_terms, rest_terms = terms[:whole].reshape(-1, batch), terms[whole:]

    # The per-epoch buffer check scores in blocks whose largest product
    # (d x max(K, h) per row) stays on one OpenBLAS thread; a woken second
    # thread would spin through the small training steps that follow. Each
    # block scores into the prepared arrays of its size. The blocks' own
    # views are taken per epoch: kept, they would cost O(n / block) objects.
    widest = max(classes, width)
    check_block = min(PREDICT_BLOCK_ROWS, max(1, ONE_THREAD_MULADDS // (dim * widest)))
    block_rows = min(check_block, stored)
    scores = np.empty((block_rows, classes))
    if projections:
        down, up = projections
        act, feat = np.empty((block_rows, width)), np.empty((block_rows, dim))
    score_args = {}
    for size in {block_rows, stored % check_block} - {0}:
        hidden = (down.T, up.T, act[:size], feat[:size]) if projections else None
        score_args[size] = (weights.T, biases, scores[:size], hidden)
    preds, hits = np.empty(stored, dtype=np.intp), np.empty(stored, dtype=bool)

    rng = seeded_rng(cfg.seed, 33)
    curve: list[tuple[int, float, float]] = []
    # A diverging run overflows into inf and nan; the per-epoch checks of
    # the parameters and the loss turn that into a DataError, so numpy's
    # warnings on the way are not printed.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(stored)
            chunk_pos = chunk_offsets + ys[order]
            for part, block, block_hot, block_logits, block_z, block_terms, chunk_steps in plan:
                # mode="clip" writes straight into the block: the indices
                # are in range, and "raise" would go through a copy.
                zs.take(order[part], axis=0, out=block, mode="clip")
                positions = chunk_pos[part]
                block_hot.fill(0.0)
                block_hot[positions] = 1.0
                for args in chunk_steps:
                    _step(*args)
                    update(*update_args)
                # Each row's loss term: its log-normalizer less its label logit.
                label_logits = block_logits.take(positions, out=block_terms, mode="clip")
                np.subtract(block_z, label_logits, out=label_logits)
            # Each minibatch's mean loss, reduced as loss_and_grads reduces
            # it, then weighted and added in batch order.
            epoch_loss = 0.0
            for loss in (np.add.reduce(batch_terms, axis=1) / batch).tolist():
                epoch_loss += loss * batch
            if rest_terms.size:
                rest = rest_terms.size
                epoch_loss += float(np.add.reduce(rest_terms) / rest) * rest
            # One pass over every parameter raises DataError once training
            # diverges, naming the head first, as building the head would.
            if not all_finite(flat):
                broken = "adapter" if all_finite(flat[:split]) else "head"
                raise DataError(f"{broken} parameters contain non-finite values")
            if not math.isfinite(epoch_loss):
                raise DataError("training loss is not finite")
            for lo in range(0, stored, check_block):
                block = zs[lo:lo + check_block]
                np.argmax(_scores_into(block, *score_args[len(block)]), axis=1,
                          out=preds[lo:lo + check_block])
            np.equal(preds, ys, out=hits)
            curve.append((epoch, epoch_loss / stored, float(np.count_nonzero(hits)) / stored))

    head = LinearHead(weights, biases)
    adapter = AdapterParams(*projections, head) if projections else None
    return AdaptedPredictor(head, adapter, provenance=provenance, curve=curve, warnings=warnings)


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
    w = Writer(PREDICTOR_MAGIC, PREDICTOR_VERSION)
    k, d = pred.head.weights.shape
    h = pred.adapter.width if pred.adapter is not None else 0
    w.pack("BIII", 1 if pred.adapter else 0, k, d, h)
    w.array(pred.head.weights, "<f8")
    w.array(pred.head.biases, "<f8")
    if pred.adapter is not None:
        w.array(pred.adapter.down, "<f8")
        w.array(pred.adapter.up, "<f8")
    w.json(pred.provenance)
    w.save(path)


def load_predictor(path) -> AdaptedPredictor:
    """Read back a checkpoint written by :func:`save_predictor`."""
    r = Reader.read_file(path, PREDICTOR_MAGIC, PREDICTOR_VERSION, "predictor")
    has_adapter, k, d, h = r.unpack("BIII", "predictor header")
    if has_adapter not in (0, 1):
        raise FormatError(f"predictor adapter flag must be 0 or 1, got {has_adapter}")
    if k == 0 or d == 0:
        raise FormatError(f"degenerate predictor header: K={k}, d={d}")
    head = LinearHead(r.floats((k, d), "head weights"), r.floats((k,), "head biases"))
    adapter = None
    if has_adapter:
        down, up = r.floats((h, d), "down projection"), r.floats((d, h), "up projection")
        adapter = AdapterParams(down, up, head)
    provenance = r.json("provenance", dict)
    r.expect_end()
    return AdaptedPredictor(head, adapter, provenance=provenance)
