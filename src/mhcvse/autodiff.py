"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are numpy arrays of rank 0..3 (rank 0 is the scalar case used by
losses). Gradients come from recording every op on a :class:`Tape` during
the forward pass and replaying the recorded nodes in reverse: define-by-run,
so the tape is rebuilt on every forward pass and append order is already a
topological order. Only op outputs are nodes: a tensor an op reads that the
tape did not make, such as a parameter, is a leaf, and the tape never
writes to it. The op set is deliberately small and holds only the
forms a caller runs -- matrix products (one matrix applied to a rank-3
batch's rows too), add/sub/mul with numpy broadcasting, elementwise
nonlinearities, a sum, a stable softmax of a vector or of rows and row
L2 normalization -- and everything downstream is composed from it, apart
from the fused blocks (the text encoder, attention, the fusion blend and
the losses) that record one op with a hand-written vjp through
:func:`_make`. Tensors have no operator methods:
every op is called by name. Adam with bias correction lives here too,
since every other module optimizes through this engine.

Non-finite values raise ``FloatingPointError`` at op boundaries, always:
a tensor and every op's output are checked as they are made.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "Tape", "AdamState", "adam_step",
    "matmul", "transpose", "add", "sub", "mul",
    "tanh", "sigmoid", "relu",
    "sum",
    "softmax_rows", "l2_normalize_rows",
]


class Tensor:
    """Dense float64 array, rank 0..3, optionally tracked on the active tape.

    Values are treated as immutable once created; the one sanctioned
    exception is the optimizer updating parameter ``.data`` in place
    between tapes.
    """

    __slots__ = ("data", "_tape", "_node")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ValueError(f"rank-{arr.ndim} tensor not supported (max rank 3)")
        if not np.isfinite(arr).all():
            raise FloatingPointError("non-finite values in tensor")
        self.data = arr
        self._tape = None
        self._node = -1

    @classmethod
    def wrap(cls, data: np.ndarray) -> "Tensor":
        """A tensor around ``data`` itself, with no copy and no check: for a
        finite float64 array of rank 0..3 that the caller hands over."""
        out = cls.__new__(cls)
        out.data = data
        out._tape = None
        out._node = -1
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class _Node:
    # per input: its node index if this tape made it, else the leaf tensor
    __slots__ = ("inputs", "vjp")

    def __init__(self, inputs, vjp):
        self.inputs = inputs
        self.vjp = vjp


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Records ops during one forward pass; single writer, no nesting.

    Use as a context manager around the forward computation, then call
    :meth:`backward` on the resulting scalar loss.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def parent_ids(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in self._nodes[i].inputs if isinstance(j, int))

    def _record(self, out: Tensor, inputs, vjp) -> None:
        self._nodes.append(_Node(tuple(t._node if t._tape is self else t
                                       for t in inputs), vjp))
        out._tape = self
        out._node = len(self._nodes) - 1

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Gradient of a scalar loss for every reachable leaf tensor.

        Returns a map keyed by leaf Tensor identity; each gradient has the
        same shape as the leaf's value. A tape runs backward once: each
        node drops its vjp, and with it the forward values the vjp holds,
        as the pass reaches it, and a node's gradient is dropped as soon
        as its vjp has run. A second call raises ``RuntimeError``.
        """
        if loss._tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if loss.data.ndim != 0:
            raise ValueError("loss must be a scalar (rank-0) tensor")
        if self._spent:
            raise RuntimeError("backward has already run on this tape; "
                               "record the forward pass again")
        self._spent = True
        grads: list[np.ndarray | None] = [None] * len(self._nodes)
        grads[loss._node] = np.asarray(1.0)
        leaves: dict[Tensor, np.ndarray] = {}
        for i in range(loss._node, -1, -1):
            g = grads[i]
            node = self._nodes[i]
            vjp, node.vjp = node.vjp, None
            if g is None:
                continue
            grads[i] = None
            for j, gj in zip(node.inputs, vjp(g)):
                if gj is None:
                    continue
                if isinstance(j, int):
                    grads[j] = gj if grads[j] is None else grads[j] + gj
                else:
                    prev = leaves.get(j)
                    leaves[j] = gj if prev is None else prev + gj
        return {t: np.asarray(g, dtype=np.float64) for t, g in leaves.items()}


def _recording() -> bool:
    """Whether a tape is recording, so a fused op's forward must keep what
    its vjp reads."""
    return _ACTIVE_TAPE is not None


def _make(out_data: np.ndarray, inputs, vjp, op: str) -> Tensor:
    if not np.isfinite(out_data).all():
        raise FloatingPointError(f"non-finite output from {op}")
    out = Tensor.wrap(out_data)
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._record(out, inputs, vjp)
    return out


def _check(t, name: str, op: str) -> None:
    if not isinstance(t, Tensor):
        raise TypeError(f"{op}: {name} must be a Tensor, got {type(t).__name__}")


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices, or one matrix applied to a batch's rows.

    (n, k) @ (k, m) is one matrix product. A rank-3 ``a`` is a batch:
    (B, n, k) @ (k, m) applies the matrix to all B·n rows as a single
    (B·n, k) @ (k, m) product. No other rank pair is accepted.
    """
    _check(a, "a", "matmul"); _check(b, "b", "matmul")
    ad, bd = a.data, b.data
    if (ad.ndim, bd.ndim) not in ((2, 2), (3, 2)):
        raise ValueError(f"matmul needs ranks (2, 2) or (3, 2), "
                         f"got {ad.ndim} and {bd.ndim}")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")
    a2 = ad.reshape(-1, ad.shape[-1])
    out = a2 @ bd

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ bd.T).reshape(ad.shape), a2.T @ g2
    return _make(out.reshape(ad.shape[:-1] + bd.shape[-1:]), (a, b), vjp, "matmul")


def transpose(a: Tensor) -> Tensor:
    """Swap the two axes of a matrix."""
    _check(a, "a", "transpose")
    if a.data.ndim != 2:
        raise ValueError(f"transpose needs a rank-2 tensor, got rank {a.data.ndim}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def _operand(x, name: str, op: str):
    """The value of one operand of add/sub/mul: a Tensor's array, or a plain
    int or float as a float constant; a bool or anything else is refused."""
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise TypeError(f"{op}: {name} must be a Tensor or a number, got {type(x).__name__}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient of a broadcast result back to an operand's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        # one reduction over all the extra leading axes, as for a bias row
        g = g.reshape((-1,) + g.shape[lead:]).sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _broadcast(op: str, ufunc, a, b, ad, bd, grad_a, grad_b) -> Tensor:
    """Record ``ufunc(ad, bd)`` under numpy broadcasting, where ``ad`` and
    ``bd`` are the values of the operands ``a`` and ``b``.

    ``grad_a(g)`` and ``grad_b(g)`` give each operand's gradient at the
    result's shape. Only Tensor operands are inputs of the node. The vjp
    holds only the arrays its gradients read, and never a Tensor, whose
    tape link would keep the tape alive.
    """
    a_is_t, b_is_t = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (a_is_t or b_is_t):
        raise TypeError(f"{op}: at least one operand must be a Tensor")
    try:
        out = ufunc(ad, bd)
    except ValueError:
        raise ValueError(f"{op}: shapes {np.shape(ad)} and {np.shape(bd)} "
                         f"do not broadcast") from None
    if not b_is_t:
        return _make(out, (a,), lambda g: (grad_a(g),), op)
    if not a_is_t:
        return _make(out, (b,), lambda g: (grad_b(g),), op)
    sa, sb = ad.shape, bd.shape

    def vjp(g):
        return _unbroadcast(grad_a(g), sa), _unbroadcast(grad_b(g), sb)
    return _make(out, (a, b), vjp, op)


def _identity(g):
    return g


def add(a, b) -> Tensor:
    """a + b under numpy broadcasting; either side may be a number."""
    ad, bd = _operand(a, "a", "add"), _operand(b, "b", "add")
    return _broadcast("add", np.add, a, b, ad, bd, _identity, _identity)


def sub(a, b) -> Tensor:
    """a - b under numpy broadcasting; either side may be a number."""
    ad, bd = _operand(a, "a", "sub"), _operand(b, "b", "sub")
    return _broadcast("sub", np.subtract, a, b, ad, bd, _identity, np.negative)


def mul(a, b) -> Tensor:
    """Elementwise a * b under numpy broadcasting; either side may be a number."""
    ad, bd = _operand(a, "a", "mul"), _operand(b, "b", "mul")
    return _broadcast("mul", np.multiply, a, b, ad, bd,
                      lambda g: g * bd, lambda g: g * ad)


# ---------------------------------------------------------------------------
# nonlinearities

def tanh(a: Tensor) -> Tensor:
    _check(a, "a", "tanh")
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),), "tanh")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of an array, without overflow for either sign:
    1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere.

    The result goes into ``out``, which may be ``x``, and the numerator
    into ``scratch``; both are arrays of x's shape that a caller in a loop
    can reuse, and each is made when not given. With e = e^-|x| <= 1 the
    numerator max(e, x >= 0) is 1 or e, so one unmasked divide gives both
    branches with the same bits as choosing between them.
    """
    num = np.greater_equal(x, 0, out=np.empty_like(x) if scratch is None else scratch)
    e = np.abs(x, out=np.empty_like(x) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, num, out=num)
    d = np.add(1.0, e, out=e)
    return np.divide(num, d, out=d)


def sigmoid(a: Tensor) -> Tensor:
    _check(a, "a", "sigmoid")
    y = _sigmoid(a.data)
    return _make(y, (a,), lambda g: (g * y * (1.0 - y),), "sigmoid")


def relu(a: Tensor) -> Tensor:
    _check(a, "a", "relu")
    x = a.data
    return _make(np.maximum(x, 0.0), (a,), lambda g: (g * (x > 0.0),), "relu")


# ---------------------------------------------------------------------------
# reductions

def sum(a: Tensor) -> Tensor:  # noqa: A001 - mirrors the op name used throughout
    """Sum of all elements, as a rank-0 tensor."""
    _check(a, "a", "sum")
    shape = a.data.shape
    return _make(np.asarray(a.data.sum()), (a,),
                 lambda g: (np.broadcast_to(g, shape),), "sum")


# ---------------------------------------------------------------------------
# normalizers

def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array, max-shifted for stability."""
    y = x - x.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax of a vector or of each row of a matrix, max-shifted for stability."""
    _check(a, "a", "softmax_rows")
    x = a.data
    if x.ndim not in (1, 2):
        raise ValueError(f"softmax_rows needs rank 1 or 2, got rank {x.ndim}")
    y = _softmax(x)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)
    return _make(y, (a,), vjp, "softmax_rows")


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row of a matrix to unit L2 norm; zero rows pass through."""
    _check(a, "a", "l2_normalize_rows")
    x = a.data
    if x.ndim != 2:
        raise ValueError(f"l2_normalize_rows needs rank 2, got rank {x.ndim}")
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    safe = np.where(norms == 0.0, 1.0, norms)
    y = x / safe

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / safe,)
    return _make(y, (a,), vjp, "l2_normalize_rows")


# ---------------------------------------------------------------------------
# optimizer

# Adam's moment decay rates and the floor of its update's denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class AdamState:
    """Adam moment buffers, keyed by parameter name."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: dict[str, Tensor], grads: dict[Tensor, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One Adam update with bias correction; mutates param data in place.

    Parameters missing from ``grads`` are treated as having zero gradient.
    """
    if lr < 0.0:
        raise ValueError(f"negative learning rate {lr}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = grads.get(p)
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for parameter '{name}'")
        elif g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter '{name}' "
                             f"shape {p.data.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
