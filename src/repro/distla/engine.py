"""Kernel-execution engines behind the costed block-BLAS layer.

The :mod:`repro.distla.blas` functions describe *what* a distributed
operation computes and charges; an engine decides *how* the per-rank
NumPy work executes:

* :class:`LoopEngine` — the reference: one Python-level BLAS call and
  one cost evaluation per simulated rank.  Kept as the oracle the tests
  hold the batched engine to; its kernel bodies run if and only if the
  communicator says ``"loop"``.
* :class:`BatchedEngine` — computes on the one flat, column-major
  ``(n, k)`` array behind every ``DistMultiVector``, on any partition;
  per-rank operands are strided views of it and nothing is copied or
  transposed on the way into BLAS.  The charge of a kernel shape is
  evaluated once per run of equal-count ranks and kept on the partition.

Both engines produce bit-identical values and charge identical modeled
costs: a kernel names its op of the one price table,
:data:`~repro.parallel.costmodel.LOCAL_OPS`, priced per shard
(:func:`charge_shards`) or per run of equal-count ranks
(:func:`charge_rows`).  The contract, by kind of kernel: *reductions*
fold per-rank partials in the MPI pair order of
:class:`~repro.parallel.communicator.SimComm` (the paper's numerics) —
one batched ``matmul`` per *run* of consecutive equal-count ranks
(``Partition.runs``) is one GEMM per rank by construction; row-local
*GEMMs* are likewise issued per rank, over tiles of whole ranks, because
what a BLAS computes for a row depends on where the row sits in the
call; *elementwise* kernels run over row tiles that ignore rank
boundaries, a row's value depending on that row alone.  The triangular
solve (:func:`_trsm_rows`) of at most 8 columns — every s-step panel —
is an elementwise column sweep, identical on any partition; a wider one
(stage 2 of the two-stage scheme) is one BLAS ``dtrsm`` per rank.

The engine is bound where the ranks are: ``SimComm(..., engine=...)``
(hence ``MpComm``, ``make_comm`` and ``Simulation(..., engine=...)``)
names it once at construction, and every kernel over that communicator
looks it up through :func:`resolve`.  There is no per-call, per-backend
or process-wide selection.

Every operand stores float64, so a kernel computes on its operands'
rows as they lie, with no cast on the way in or out, and every charge
prices fp64 words.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm

from repro import config
from repro.parallel.costmodel import LOCAL_OPS, KernelCharge


class KernelEngine:
    """Common interface; concrete engines implement the kernel bodies."""

    name: str = "abstract"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# row-local kernel bodies shared by both engines
# ---------------------------------------------------------------------------

#: Elements of the widest operand in one tile of a row-local kernel
#: (256 KiB of float64): operands and temporaries stay in cache between
#: passes and none is ``(n, k)``.  Values never depend on the tiling.
_TILE_ELEMS = 32_768
#: Widest panel the triangular solve sweeps column by column.
_TRSM_BLOCK = 8


def _row_tiles(n: int, k: int) -> list[slice]:
    """Row slices of about ``_TILE_ELEMS`` elements of a ``k``-column
    operand, rank boundaries ignored."""
    step = max(1, _TILE_ELEMS // max(1, k))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _trsm_check(r: np.ndarray, blocks) -> None:
    """Reject non-finite input (``ValueError``, one column mask at a time)
    and a zero pivot before the substitution writes any row."""
    for arr in (r, *blocks):
        mask = np.empty(len(arr), dtype=bool)
        if not all(np.isfinite(col, out=mask).all() for col in arr.T):
            raise ValueError("array must not contain infs or NaNs")
    zero = np.flatnonzero(np.diagonal(r) == 0.0)
    if zero.size:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {zero[0]}")


def _gemm_sub(v: np.ndarray, q: np.ndarray, r: np.ndarray,
              count: int = 1) -> None:
    """``v -= q @ r`` in place, one GEMM per rank; ``v`` and ``q`` are
    the rows of ``count`` whole equal-count ranks.  Formed as
    ``r.T @ q_rank.T`` so that each product comes out in the layout of
    the columns it is subtracted from."""
    each = v.shape[0] // count
    target = v.T.reshape(v.shape[1], count, each).transpose(1, 0, 2)
    target -= np.matmul(
        r.T, q.T.reshape(q.shape[1], count, each).transpose(1, 0, 2))


def _trsm_rows(w: np.ndarray, r: np.ndarray, ranks) -> None:
    """``w <- w @ inv(r)`` in place, ``r`` upper triangular: one ``dtrsm``
    per row slice in ``ranks`` (``w``'s ranks) if wider than ``_TRSM_BLOCK``,
    else the sweep ``x_j = (w_j - sum_i x_i r_ij) / r_jj`` over all rows."""
    if w.shape[1] > _TRSM_BLOCK:
        for rows in ranks:
            w[rows] = dtrsm(1.0, r, w[rows], side=1, lower=0, overwrite_b=1)
        return
    k, coef = w.shape[1], r.tolist()
    step = max(1, _TILE_ELEMS // 2)
    tmp = np.empty(min(len(w), step))
    for lo in range(0, len(w), step):
        cols = [w[lo:lo + step, j] for j in range(k)]
        t = tmp[:len(w) - lo]
        for j, col in enumerate(cols):
            for i in range(j):
                np.multiply(cols[i], coef[i][j], out=t)
                np.subtract(col, t, out=col)
            np.divide(col, coef[j][j], out=col)


# ---------------------------------------------------------------------------
# loop engine (reference semantics)
# ---------------------------------------------------------------------------

def charge_shards(mv, op: str, *args) -> None:
    """Charge the local ``op`` of :data:`~repro.parallel.costmodel.LOCAL_OPS`
    over ``mv``'s rows, its formula evaluated once per shard."""
    comm = mv.comm
    kernel, formula = LOCAL_OPS[op]
    comm.charge(kernel, comm.cost.record(lambda c: [
        formula(c, s.shape[0], *args) for s in mv.shards]))


class LoopEngine(KernelEngine):
    """One NumPy call per simulated rank — the reference execution path."""

    name = config.ENGINE_LOOP

    # -- reductions -----------------------------------------------------
    def _dot_partials(self, pairs) -> list:
        """One reduction group per ``(X, Y)`` pair — rank ``r``
        contributes ``X_r.T @ Y_r`` — and one ``dot`` charge per pair."""
        groups = []
        for x, y in pairs:
            groups.append([xs.T @ ys for xs, ys in zip(x.shards, y.shards)])
            charge_shards(x, "dot", x.n_cols, y.n_cols)
        return groups

    def block_dot(self, x, y) -> np.ndarray:
        return x.comm.allreduce(self._dot_partials([(x, y)]))[0]

    def block_dot_multi(self, pairs) -> list[np.ndarray]:
        return pairs[0][0].comm.allreduce(self._dot_partials(pairs))

    def column_norms(self, x) -> np.ndarray:
        partials = [np.einsum("ij,ij->j", s, s) for s in x.shards]
        charge_shards(x, "norm", x.n_cols)
        return np.sqrt(x.comm.allreduce([partials])[0])

    # -- local (communication-free) updates ------------------------------
    def block_update(self, v, q, r: np.ndarray) -> None:
        for vs, qs in zip(v.shards, q.shards):
            _gemm_sub(vs, qs, r)
        charge_shards(v, "update", q.n_cols, v.n_cols)

    def trsm_inplace(self, v, r: np.ndarray) -> None:
        _trsm_check(r, v.shards)
        for vs in v.shards:
            _trsm_rows(vs, r, [slice(None)])
        charge_shards(v, "trsm", v.n_cols)

    def scale_columns(self, v, scales: np.ndarray) -> None:
        for vs in v.shards:
            vs *= scales
        charge_shards(v, "scale", v.n_cols, 1)

    def lincomb(self, out, terms) -> None:
        for r, outs in enumerate(out.shards):
            acc = terms[0][0] * terms[0][1].shards[r]
            for alpha, x in terms[1:]:
                acc += alpha * x.shards[r]
            outs[...] = acc
        charge_shards(out, "axpy", out.n_cols, len(terms))

    def copy_into(self, dst, src) -> None:
        dst.assign_from(src)
        charge_shards(src, "axpy", src.n_cols, 1)

    def matvec_small(self, v, coeffs: np.ndarray, out) -> None:
        for vs, outs in zip(v.shards, out.shards):
            outs[...] = vs @ coeffs
        charge_shards(v, "matvec", v.n_cols, out.n_cols)

    # -- sketching --------------------------------------------------------
    def _sketch_partials(self, v, op) -> list[np.ndarray]:
        """Per-rank contributions ``S[:, rows_r] @ V_r`` + local charge.

        ``op`` is duck-typed (a :class:`repro.sketch.operators`
        ``SketchOperator``): ``partial(shard, row_offset)`` produces one
        shard's contribution, ``local_op(k)`` names its table entry.
        """
        comm = v.comm
        offsets = v.partition.offsets
        partials = [op.partial(shard, int(offsets[r]))
                    for r, shard in enumerate(v.shards)]
        # sketch application runs on the driver process under the mp
        # backend (see ROADMAP), so tag the charge for calibration
        name, *args = op.local_op(v.n_cols)
        kernel, formula = LOCAL_OPS[name]
        comm.charge(kernel, comm.cost.record(lambda c: [
            formula(c, s.shape[0], *args) for s in v.shards]),
            driver_side=True)
        return partials

    def sketch_apply(self, v, op) -> np.ndarray:
        """Global sketch ``S @ V``: shard-local partials, one allreduce."""
        return v.comm.allreduce([self._sketch_partials(v, op)])[0]

    def fused_dot_sketch(self, pairs, v, op
                         ) -> tuple[list[np.ndarray], np.ndarray]:
        """Several ``X.T @ Y`` plus one sketch ``S @ V`` in ONE collective.

        The randomized schemes' analogue of BCGS-PIP fusion: projection
        coefficients and the panel sketch travel in a single message.
        """
        groups = self._dot_partials(pairs)
        groups.append(self._sketch_partials(v, op))
        results = v.comm.allreduce(groups)
        return results[:-1], results[-1]


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------

def rows_charge(part, cost, op: str, *args) -> KernelCharge:
    """The record of the local ``op`` of
    :data:`~repro.parallel.costmodel.LOCAL_OPS` over the rows of
    partition ``part``: its formula evaluated for one rank of each run of
    equal-count ranks, once per ``(op, *args, machine)`` in the
    partition's memo."""
    formula = LOCAL_OPS[op][1]
    return cost.memoized(
        part.charges, (op, *args),
        lambda c: [formula(c.times(n_ranks), rows, *args)
                   for n_ranks, _, rows in part.runs])


def charge_rows(mv, op: str, *args) -> None:
    """Charge :func:`rows_charge` of ``op`` over ``mv``'s rows."""
    mv.comm.charge(LOCAL_OPS[op][0],
                   rows_charge(mv.partition, mv.comm.cost, op, *args))


def _rank_tiles(part, k: int):
    """``(rows, ranks_in_tile, rows_per_rank)`` over every non-empty
    rank: tiles of whole consecutive equal-count ranks, so ``flat[rows]``
    reshapes to a stack whose batched ``matmul`` is one GEMM per rank."""
    for n_ranks, lo, rows in part.runs:
        if not rows:
            continue
        step = max(1, _TILE_ELEMS // max(1, rows * k))
        for first in range(0, n_ranks, step):
            count = min(step, n_ranks - first)
            start = lo + first * rows
            yield slice(start, start + count * rows), count, rows


def _over_runs(part, kernel, *flats) -> np.ndarray:
    """``kernel(*stacks)`` per run of equal-count ranks, concatenated
    over the rank axis; a stack is the run's rows of one flat array,
    seen as ``(ranks_in_run, rows, k)``."""
    parts = [kernel(*(f[lo:lo + n_ranks * rows]
                      .reshape(n_ranks, rows, f.shape[1]) for f in flats))
             for n_ranks, lo, rows in part.runs]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class BatchedEngine(LoopEngine):
    """Kernels over the flat ``(n, k)`` array behind each operand.  Every
    per-rank body of :class:`LoopEngine` is overridden; what is inherited
    is the reduction wrappers around ``_dot_partials`` and
    ``_sketch_partials``."""

    name = config.ENGINE_BATCHED

    # -- reductions -----------------------------------------------------
    def _dot_partials(self, pairs) -> list:
        """One ``(ranks, k_x, k_y)`` stack of per-rank products per pair."""
        groups = []
        for x, y in pairs:
            groups.append(_over_runs(
                x.partition,
                lambda xs, ys: np.matmul(xs.transpose(0, 2, 1), ys),
                x.flat, y.flat))
            charge_rows(x, "dot", x.n_cols, y.n_cols)
        return groups

    def column_norms(self, x) -> np.ndarray:
        partials = _over_runs(
            x.partition, lambda w: np.einsum("rij,rij->rj", w, w), x.flat)
        charge_rows(x, "norm", x.n_cols)
        return np.sqrt(x.comm.allreduce([partials])[0])

    # -- local updates ----------------------------------------------------
    def block_update(self, v, q, r: np.ndarray) -> None:
        fv, fq = v.flat, q.flat
        kq, kv = q.n_cols, v.n_cols
        for rows, count, _ in _rank_tiles(v.partition, max(kq, kv)):
            _gemm_sub(fv[rows], fq[rows], r, count)
        charge_rows(v, "update", kq, kv)

    def trsm_inplace(self, v, r: np.ndarray) -> None:
        flat = v.flat
        _trsm_check(r, [flat])
        _trsm_rows(flat, r, v.partition.local_slices)
        charge_rows(v, "trsm", v.n_cols)

    def scale_columns(self, v, scales: np.ndarray) -> None:
        flat = v.flat
        flat *= scales
        charge_rows(v, "scale", v.n_cols, 1)

    def lincomb(self, out, terms) -> None:
        fout = out.flat
        for rows in _row_tiles(*fout.shape):
            acc = terms[0][0] * terms[0][1].flat[rows]
            for alpha, x in terms[1:]:
                acc += alpha * x.flat[rows]
            fout[rows] = acc
        charge_rows(out, "axpy", out.n_cols, len(terms))

    def copy_into(self, dst, src) -> None:
        dst.assign_from(src)
        charge_rows(dst, "axpy", src.n_cols, 1)

    def matvec_small(self, v, coeffs: np.ndarray, out) -> None:
        fout, fv = out.flat, v.flat
        kv, kout = v.n_cols, out.n_cols
        for rows, count, each in _rank_tiles(v.partition, max(kv, kout)):
            fout[rows] = np.matmul(fv[rows].reshape(count, each, kv),
                                   coeffs).reshape(count * each, kout)
        charge_rows(v, "matvec", kv, kout)

    # -- sketching --------------------------------------------------------
    def _sketch_partials(self, v, op) -> np.ndarray:
        """``(ranks, m, k)`` contribution stack: the operator's batched
        kernel once per run of equal-count ranks, each told the global
        row its run starts at."""
        comm, part, flat, k = v.comm, v.partition, v.flat, v.n_cols
        parts = [op.partial_stack(
                     flat[lo:lo + n_ranks * rows].reshape(n_ranks, rows, k),
                     lo)
                 for n_ranks, lo, rows in part.runs]
        # same charge as the loop body
        name, *args = op.local_op(k)
        kernel, formula = LOCAL_OPS[name]
        comm.charge(kernel, comm.cost.record(lambda c: [
            formula(c.times(n_ranks), rows, *args)
            for n_ranks, _, rows in part.runs]), driver_side=True)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

_INSTANCES: dict[str, KernelEngine] = {
    config.ENGINE_LOOP: LoopEngine(),
    config.ENGINE_BATCHED: BatchedEngine(),
}

# The names a communicator accepts at construction (config.ENGINES) and
# this dispatch registry must never drift apart, or a name accepted at
# the binding site would still blow up inside the first BLAS call.
assert set(_INSTANCES) == set(config.ENGINES), \
    "engine registry out of sync with repro.config.ENGINES"


def get_engine(name: str) -> KernelEngine:
    """Engine singleton for ``name`` (``"loop"`` or ``"batched"``)."""
    try:
        return _INSTANCES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; expected one of "
            f"{tuple(_INSTANCES)}") from None


def resolve(comm) -> KernelEngine:
    """The engine ``comm`` was bound to at construction."""
    return get_engine(comm.engine)
