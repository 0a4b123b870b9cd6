"""Differentiable-computation substrate: MLPs with hand-derived backprop, Adam,
diagonal-Gaussian log densities, seeded RNG streams, and bit-exact checkpoints.

Everything is plain numpy float64. No autodiff: gradients are written out by hand
so the finite-difference tests in the suite actually exercise the math.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .configio import format_record, parse_record, write_bytes_atomic
from .errors import ConfigError, DataError, NumericError, ShapeError

ACTIVATIONS = ("tanh", "relu", "identity")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@functools.lru_cache(maxsize=64)
def _param_layout(layer_dims: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) of W0, b0, W1, b1, ... in the flat parameter
    vector; the same order as every checkpoint payload."""
    layout = []
    offset = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        for shape in ((fan_out, fan_in), (fan_out,)):
            layout.append((offset, offset + math.prod(shape), shape))
            offset += math.prod(shape)
    return tuple(layout)


def param_count(layer_dims) -> int:
    return _param_layout(tuple(layer_dims))[-1][1]


def split_params(flat: np.ndarray, layer_dims) -> list[np.ndarray]:
    """Views [W0, b0, W1, b1, ...] into a flat vector in the parameter layout."""
    return [flat[start:stop].reshape(shape)
            for start, stop, shape in _param_layout(tuple(layer_dims))]


@dataclass
class MlpNetwork:
    """Fully connected net. weights[i] has shape (layer_dims[i+1], layer_dims[i]).

    The activation applies to hidden layers only; the output layer is linear.
    All parameters live in one contiguous float64 vector, params, laid out as
    [W0, b0, W1, b1, ...]; weights and biases are views into it, so an edit
    through either is seen by the other. weights_t holds the transposed views
    that forward multiplies by. Construction copies the given arrays.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "tanh"
    params: np.ndarray = field(init=False, repr=False, compare=False)
    weights_t: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        if len(self.layer_dims) < 2 or min(self.layer_dims) <= 0:
            raise ShapeError(f"layer_dims must be >= 2 positive entries, got {self.layer_dims}")
        self.bind(np.empty(param_count(self.layer_dims)))

    def bind(self, buffer: np.ndarray) -> None:
        """Copy the parameters into buffer (one contiguous float64 vector of
        param_count entries) and make weights, biases and params views of it."""
        views = split_params(buffer, self.layer_dims)
        given = mlp_params(self)
        if len(given) != len(views):
            raise ShapeError(f"{len(given) // 2} layers given for layer_dims {self.layer_dims}")
        for view, arr in zip(views, given):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != view.shape:
                raise ShapeError(f"parameter shape {arr.shape} != expected {view.shape}")
            view[...] = arr
        self.params = buffer
        self.weights = views[0::2]
        self.biases = views[1::2]
        self.weights_t = [w.T for w in self.weights]

    def __reduce__(self):
        # copies and pickles rebuild the shared buffer instead of splitting
        # the views into independent arrays
        return (MlpNetwork, (self.layer_dims, self.weights, self.biases, self.activation))

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


def init_mlp(layer_dims, activation: str, rng: np.random.Generator) -> MlpNetwork:
    """Gaussian init scaled by 1/sqrt(fan_in), zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ConfigError(f"layer_dims must be >= 2 positive entries, got {dims}")
    _check_activation(activation)
    weights = []
    biases = []
    for i in range(len(dims) - 1):
        scale = 1.0 / np.sqrt(dims[i])
        weights.append(rng.standard_normal((dims[i + 1], dims[i])) * scale)
        biases.append(np.zeros(dims[i + 1]))
    return MlpNetwork(layer_dims=dims, weights=weights, biases=biases, activation=activation)


def _check_activation(kind: str) -> None:
    if kind not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {kind!r}, expected one of {ACTIVATIONS}")


def _apply_act(z: np.ndarray, kind: str) -> None:
    """The hidden activation, in place on z."""
    if kind == "tanh":
        np.tanh(z, out=z)
    elif kind == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        _check_activation(kind)


def _act_deriv_from_output(h: np.ndarray, kind: str, out: np.ndarray) -> np.ndarray:
    """The activation's derivative from its output, written into out, an
    array shaped like h, and returned."""
    # tanh' = 1 - tanh^2; relu' from the output sign (h = max(z,0) so h>0 iff z>0)
    _check_activation(kind)
    if kind == "tanh":
        np.multiply(h, h, out=out)
        np.subtract(1.0, out, out=out)
    elif kind == "relu":
        np.greater(h, 0.0, out=out)
    else:
        out.fill(1.0)
    return out


def _as_input(x, dim: int, what: str) -> np.ndarray:
    """x as a float64 array, one row (dim,) or a batch (B, dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ShapeError(f"{what} has length {x.shape[0]}, expected {dim}")
    elif x.ndim == 2:
        if x.shape[1] != dim:
            raise ShapeError(f"{what} has trailing dim {x.shape[1]}, expected {dim}")
    else:
        raise ShapeError(f"{what} must be 1-D or 2-D, got ndim={x.ndim}")
    return x


def _as_batch(x, dim: int, what: str) -> tuple[np.ndarray, bool]:
    """x as a batch, and whether it was one row."""
    x = _as_input(x, dim, what)
    return (x[None, :], True) if x.ndim == 1 else (x, False)


class MlpWorkspace:
    """Preallocated buffers for one net's forward and backprop over at most
    rows rows: an input block the trainers gather their batches into, every
    layer's output, the delta entering every layer, every hidden layer's
    activation derivative, and a flat gradient in the params layout with its
    [W0, b0, W1, b1, ...] views.

    A forward_cache or backprop over n rows uses the leading n rows of each
    buffer. The next call overwrites every buffer, and the layer outputs
    forward_cache returns alias them, so a caller copies what it keeps.
    grad, new when None, may run past the net's parameters: the policy keeps
    its log_std gradient after the mean net's. The row buffers share one
    heap block; every workspace serves one call (a loss or a trainer run),
    and the heap hands the same pages back call after call.
    """

    def __init__(self, layer_dims, rows: int, grad: np.ndarray | None = None):
        dims = tuple(int(d) for d in layer_dims)
        self.rows = int(rows)
        widths = (dims[0], *dims[1:], *dims[:-1], *dims[1:-1])
        block = np.empty(self.rows * sum(widths))
        buffers = []
        for width in widths:
            buffers.append(block[:self.rows * width].reshape(self.rows, width))
            block = block[self.rows * width:]
        layers = len(dims) - 1
        self.inputs = buffers[0]
        self.outputs = buffers[1:1 + layers]
        self.deltas = buffers[1 + layers:1 + 2 * layers]
        self.derivs = buffers[1 + 2 * layers:]
        self.grad = np.empty(param_count(dims)) if grad is None else grad
        self.grad_views = split_params(self.grad, dims)

    def check_rows(self, n: int) -> None:
        if n > self.rows:
            raise ShapeError(f"{n} rows do not fit a workspace of {self.rows}")


def _forward_into(net: MlpNetwork, x: np.ndarray, outputs) -> list[np.ndarray]:
    """Post-activation value of every layer, starting with the input itself.
    x is a batch (n, in_dim), or, when outputs is None, one row (in_dim,) or
    a stack of rows (n, 1, in_dim). Layer i is written into the leading n
    rows of outputs[i], or into a new array when outputs is None (for one
    row that is the cheaper of the two)."""
    hs = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w_t, b) in enumerate(zip(net.weights_t, net.biases)):
        if outputs is None:
            z = h @ w_t
        else:
            z = outputs[i][:x.shape[0]]
            np.matmul(h, w_t, out=z)
        z += b
        if i != last:
            _apply_act(z, net.activation)
        hs.append(z)
        h = z
    return hs


def forward(net: MlpNetwork, x) -> np.ndarray:
    """Evaluate the net on one input (in_dim,) or a batch (B, in_dim); the
    output is a new array.

    One input goes through matmul as a 1-D operand, which matmul runs as a
    batch of one row with the same BLAS call, so the output has the bits of
    forward(net, x[None, :])[0] for less call cost. forward_cache runs the
    same layers into a workspace.
    """
    return _forward_into(net, _as_input(x, net.in_dim, "input"), None)[-1]


def forward_rows(net: MlpNetwork, rows) -> np.ndarray:
    """forward on every row of a batch (E, in_dim): row i of the (E, out_dim)
    result has the bits of forward(net, rows[i]).

    Each layer multiplies the stack (E, 1, width) of rows, and a stacked
    matmul runs one single-row product per row, the product forward makes
    for one input. The plain GEMM of an (E, width) batch rounds its rows
    otherwise for every E >= 2.
    """
    x = _as_input(rows, net.in_dim, "input")
    if x.ndim != 2:
        raise ShapeError("forward_rows needs a 2-D batch")
    return _forward_into(net, x[:, None, :], None)[-1][:, 0]


def forward_cache(net: MlpNetwork, x, workspace: MlpWorkspace) -> list[np.ndarray]:
    """Forward pass over a batch (B, in_dim) that keeps every layer's output,
    input first and net output last, for backprop to consume. Losses run it
    once over all their row blocks and backprop row slices of it. The
    outputs live in workspace's buffers (see MlpWorkspace)."""
    xb, squeeze = _as_batch(x, net.in_dim, "input")
    if squeeze:
        raise ShapeError("forward_cache needs a 2-D batch")
    workspace.check_rows(xb.shape[0])
    return _forward_into(net, xb, workspace.outputs)


def backprop(net: MlpNetwork, hs: list[np.ndarray], upstream: np.ndarray,
             workspace: MlpWorkspace, input_grad: bool = False):
    """Gradients of sum_b dot(output_b, upstream_b) from a forward_cache.

    Writes the parameter gradients into workspace.grad, in the params
    layout, and returns the input gradient (aliasing workspace.deltas[0])
    when input_grad is set, else None. hs may be row slices of a cache in
    the same workspace. Checks nothing: callers run check_finite once on
    the finished gradient.
    """
    views = workspace.grad_views
    n = upstream.shape[0]
    delta = upstream
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.T, hs[i], out=views[2 * i])
        delta.sum(axis=0, out=views[2 * i + 1])
        if i > 0 or input_grad:
            w = net.weights[i]
            below = workspace.deltas[i][:n]
            if w.shape[0] == 1:
                # a width-1 layer's delta @ w has one product per entry; GEMM
                # adds it to +0.0, which turns a -0.0 product into +0.0
                np.multiply(delta, w, out=below)
                below += 0.0
            else:
                np.matmul(delta, w, out=below)
            if i > 0:
                deriv = workspace.derivs[i - 1][:n]
                _act_deriv_from_output(hs[i], net.activation, deriv)
                below *= deriv
            delta = below
    return delta if input_grad else None


def check_finite(net: MlpNetwork, hs: list[np.ndarray], grad: np.ndarray) -> None:
    """One scan of the net output and the flat gradient in the params layout.
    Only when that fails are the layers searched, top down, so the
    NumericError names the first bad layer."""
    if np.isfinite(grad).all() and np.isfinite(hs[-1]).all():
        return
    views = split_params(grad, net.layer_dims)
    for i in range(len(net.weights) - 1, -1, -1):
        if not np.isfinite(hs[i + 1]).all():
            raise NumericError(f"non-finite activation in layer {i}")
        if not (np.isfinite(views[2 * i]).all() and np.isfinite(views[2 * i + 1]).all()):
            raise NumericError(f"non-finite gradient in layer {i}")
    raise NumericError("non-finite gradient")


def backward(net: MlpNetwork, x, upstream) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Exact gradients of sum_b dot(output_b, upstream_b) w.r.t. params and input.

    Returns (weight_grads, bias_grads, input_grad), the first two as views into
    one flat gradient in the params layout. Raises NumericError naming the
    layer index if the output or a gradient goes non-finite; a non-finite
    hidden activation reaches the gradient of the layer above it.
    """
    xb, squeeze = _as_batch(x, net.in_dim, "input")
    gb, gsqueeze = _as_batch(upstream, net.out_dim, "upstream_grad")
    if squeeze != gsqueeze or xb.shape[0] != gb.shape[0]:
        raise ShapeError(
            f"input batch {xb.shape[0]} and upstream batch {gb.shape[0]} do not match"
        )
    ws = MlpWorkspace(net.layer_dims, xb.shape[0])
    hs = _forward_into(net, xb, ws.outputs)
    delta = backprop(net, hs, gb, ws, input_grad=True)
    check_finite(net, hs, ws.grad)
    return ws.grad_views[0::2], ws.grad_views[1::2], delta[0] if squeeze else delta


def mlp_params(net: MlpNetwork) -> list[np.ndarray]:
    """Parameter arrays as a flat list of views: [W0, b0, W1, b1, ...]."""
    return interleave_grads(net.weights, net.biases)


def interleave_grads(w_grads: list[np.ndarray], b_grads: list[np.ndarray]) -> list[np.ndarray]:
    """Order gradient arrays to match mlp_params."""
    out: list[np.ndarray] = []
    for w, b in zip(w_grads, b_grads):
        out.append(w)
        out.append(b)
    return out


@dataclass
class AdamState:
    """Adam moments, one array per parameter array. scratch holds, per
    parameter array, two views in its shape into two scratch vectors as
    long as the largest array; adam_step overwrites them."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    learning_rate: float = 5e-4
    scratch: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = max((m.size for m in self.first_moment), default=0)
        vectors = (np.empty(n), np.empty(n))
        self.scratch = [tuple(v[:m.size].reshape(m.shape) for v in vectors)
                        for m in self.first_moment]


def init_adam(params: list[np.ndarray], learning_rate: float = 5e-4) -> AdamState:
    return AdamState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
    )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> list[np.ndarray]:
    """Standard bias-corrected Adam update, in place on params and state.

    Each line computes what p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
    would, operand for operand, into the state's scratch vectors."""
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError(
            f"param/grad/state length mismatch: {len(params)}/{len(grads)}/{len(state.first_moment)}"
        )
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for p, g, m, v, (step, denom) in zip(params, grads, state.first_moment,
                                         state.second_moment, state.scratch):
        g = np.asarray(g, dtype=np.float64)
        if p.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} does not match param shape {p.shape}")
        m *= b1
        np.multiply(1.0 - b1, g, out=step)
        m += step
        v *= b2
        np.multiply(g, g, out=step)
        np.multiply(1.0 - b2, step, out=step)
        v += step
        np.divide(m, bc1, out=step)
        np.multiply(state.learning_rate, step, out=step)
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        step /= denom
        p -= step
    return params


def gaussian_log_prob(mean, log_std, action):
    """Diagonal-Gaussian log density: -0.5 sum_i [log(2 pi s_i^2) + (a_i-mu_i)^2/s_i^2].

    mean/action may carry a leading batch axis; log_std is a length-d vector.
    Returns a scalar for 1-D inputs, a (B,) array for batched ones.
    """
    mean = np.asarray(mean, dtype=np.float64)
    action = np.asarray(action, dtype=np.float64)
    log_std = np.asarray(log_std, dtype=np.float64)
    if mean.shape[-1] != action.shape[-1]:
        raise ShapeError(f"mean dim {mean.shape[-1]} != action dim {action.shape[-1]}")
    if log_std.ndim != 1 or log_std.shape[0] != mean.shape[-1]:
        raise ShapeError(f"log_std must be a length-{mean.shape[-1]} vector, got shape {log_std.shape}")
    inv_var = np.exp(-2.0 * log_std)
    per_dim = np.log(2.0 * np.pi) + 2.0 * log_std + (action - mean) ** 2 * inv_var
    return -0.5 * np.sum(per_dim, axis=-1)


def named_generator(seed: int, name: str) -> np.random.Generator:
    """Reproducible generator keyed by (seed, name): the stream id is the
    CRC-32 of the name, so one root seed fans out per component."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(zlib.crc32(name.encode("utf8")),))
    return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# Record files: an ASCII header line (the kind, then a configio record of its
# fields in sorted key order) and a little-endian payload. Every kind (policy, disc,
# gmm, demoset, refret) round-trips bit-exactly via write_record_file/RecordReader.

def format_header(kind: str, fields: dict) -> str:
    return kind + (" " if fields else "") + format_record(dict(sorted(fields.items())))


def write_record_file(path, kind: str, fields: dict, payload: bytes = b"") -> None:
    """Atomic: a reader sees the old file or the new one, never a mix."""
    write_bytes_atomic(path, format_header(kind, fields).encode("ascii") + payload)


def net_fields(net: MlpNetwork) -> dict:
    """The header fields that RecordReader.net reads the net back from."""
    return {"layer_dims": net.layer_dims, "activation": net.activation}


class RecordReader:
    """A record file opened for reading: header fields converted on request,
    payload arrays taken front to back. Every failure is a DataError naming
    the file."""

    def __init__(self, path, kind: str):
        self.path = path
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError as e:
            raise DataError(f"{path}: cannot read: {e.strerror}") from None
        nl = raw.find(b"\n")
        if nl < 0:
            raise DataError(f"{path}: no header line found")
        try:
            found, space, rest = raw[:nl].decode("ascii").partition(" ")
            self.fields = parse_record(rest) if space else {}
        except (UnicodeDecodeError, DataError) as e:
            raise DataError(f"{path}: bad header: {e}") from None
        if found != kind:
            raise DataError(f"{path}: expected a {kind!r} file, found {found!r}")
        self.payload = raw[nl + 1:]
        self.offset = 0
        self.used: set[str] = set()

    def field(self, key: str, convert=str):
        self.used.add(key)
        if key not in self.fields:
            raise DataError(f"{self.path}: header has no {key!r} field")
        try:
            return convert(self.fields[key])
        except ValueError:
            raise DataError(f"{self.path}: malformed header field "
                            f"{key}={self.fields[key]!r}") from None

    def count(self, key: str) -> int:
        """A positive integer header field."""
        n = self.field(key, int)
        if n < 1:
            raise DataError(f"{self.path}: header field {key}={n} must be positive")
        return n

    def rows(self, dtype, count: int) -> np.ndarray:
        """The next count items of a numpy dtype; DataError names missing bytes."""
        if count < 0:
            raise DataError(f"{self.path}: negative item count {count}")
        dtype = np.dtype(dtype)
        end = self.offset + count * dtype.itemsize
        if end > len(self.payload):
            raise DataError(f"{self.path}: truncated payload: need "
                            f"{end - len(self.payload)} more bytes")
        arr = np.frombuffer(self.payload, dtype, count, self.offset).copy()
        self.offset = end
        return arr

    def floats(self, shape) -> np.ndarray:
        return self.rows("<f8", math.prod(shape)).reshape(shape)

    def net(self) -> MlpNetwork:
        """The net written with net_fields, from the next payload bytes; a
        non-finite parameter is refused."""
        dims = self.field("layer_dims", lambda v: tuple(int(d) for d in v.split(",")))
        activation = self.field("activation")
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise DataError(f"{self.path}: layer_dims must be >= 2 positive entries, got {dims}")
        if activation not in ACTIVATIONS:
            raise DataError(f"{self.path}: unknown activation {activation!r}")
        params = self.floats((param_count(dims),))
        if not np.all(np.isfinite(params)):
            raise DataError(f"{self.path}: network parameters must be finite")
        views = split_params(params, dims)
        return MlpNetwork(dims, views[0::2], views[1::2], activation)

    def finish(self) -> dict:
        """Check the payload is used up; the header fields never read are
        returned as the caller's extras."""
        if self.offset != len(self.payload):
            raise DataError(f"{self.path}: {len(self.payload) - self.offset} "
                            f"unexpected trailing bytes")
        return {k: v for k, v in self.fields.items() if k not in self.used}


def pack_floats(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
