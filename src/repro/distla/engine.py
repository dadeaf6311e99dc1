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
solve (:func:`_trsm_rows`) is an elementwise column sweep per diagonal
block of 8 columns with per-rank GEMMs between blocks, so a panel of at
most 8 columns — every s-step panel — is identical on any partition.

The engine is bound where the ranks are: ``SimComm(..., engine=...)``
(hence ``MpComm``, ``make_comm`` and ``Simulation(..., engine=...)``)
names it once at construction, and every kernel over that communicator
looks it up through :func:`resolve`.  There is no per-call, per-backend
or process-wide selection.

Storage precision: operands may store ``fp32``/``bf16`` (see
:mod:`repro.precision`).  Both engines accumulate shard-local partials
in float64 (unless every operand opts into native ``fp32``
accumulation), reduce in float64, round results written to
low-precision storage to its grid — the same casts in the same order —
and charge local kernels at the operands' storage word size.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.parallel.costmodel import LOCAL_OPS, KernelCharge


def _acc_dtype(*mvs) -> np.dtype:
    """Dtype shard-local partials accumulate in before the fp64 tree.

    float64 unless *every* operand is low-precision storage that opted
    into native fp32 accumulation (``accumulate="fp32"``).
    """
    if all(mv.storage != "fp64" and mv.accumulate == "fp32" for mv in mvs):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _cast(arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``astype`` that is a no-op (same object) when already ``dtype``."""
    return arr if arr.dtype == dtype else arr.astype(dtype)


def _wb(*mvs) -> float:
    """Charged word size of a kernel over ``mvs`` (largest operand wins:
    mixed-precision kernels still stream their widest operand)."""
    return max(mv.word_bytes for mv in mvs)


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
#: Column-block width of the triangular solve.
_TRSM_BLOCK = 8
_F64 = np.dtype(np.float64)


def _row_tiles(n: int, k: int) -> list[slice]:
    """Row slices of about ``_TILE_ELEMS`` elements of a ``k``-column
    operand, rank boundaries ignored."""
    step = max(1, _TILE_ELEMS // max(1, k))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _trsm_check(r: np.ndarray, blocks) -> None:
    """Reject non-finite input (``ValueError``) and a zero pivot before
    the substitution writes any row."""
    for arr in (r, *blocks):
        np.asarray_chkfinite(arr)
    zero = np.flatnonzero(np.diagonal(r) == 0.0)
    if zero.size:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {zero[0]}")


def _gemm_sub(v: np.ndarray, q: np.ndarray, r: np.ndarray,
              count: int = 1) -> None:
    """``v -= q @ r`` in place, one GEMM per rank; ``v`` and ``q`` are
    the fp64 rows of ``count`` whole equal-count ranks.  Formed as
    ``r.T @ q_rank.T`` so that each product comes out in the layout of
    the columns it is subtracted from."""
    each = v.shape[0] // count
    target = v.T.reshape(v.shape[1], count, each).transpose(1, 0, 2)
    target -= np.matmul(
        r.T, q.T.reshape(q.shape[1], count, each).transpose(1, 0, 2))


def _trsm_rows(w: np.ndarray, r: np.ndarray, count: int = 1) -> None:
    """``w <- w @ inv(r)`` in place; ``w`` is the fp64 rows of ``count``
    whole equal-count ranks, ``r`` upper triangular.

    Left-looking over column blocks ``J``: the solved columns enter
    through ``w[:, J] -= x[:, :j0] @ r[:j0, J]`` (:func:`_gemm_sub`); the
    diagonal block is the column sweep ``x_j = (w_j - sum_i x_i r_ij) /
    r_jj`` in elementwise operations over cache-sized row tiles.
    """
    n, k = w.shape
    for j0 in range(0, k, _TRSM_BLOCK):
        j1 = min(j0 + _TRSM_BLOCK, k)
        if j0:
            _gemm_sub(w[:, j0:j1], w[:, :j0], r[:j0, j0:j1], count)
        for rows in _row_tiles(n, j1 - j0):
            cols = [w[rows, j] for j in range(j0, j1)]
            tmp = np.empty_like(cols[0])
            for j, col in enumerate(cols, j0):
                for i, solved in enumerate(cols[:j - j0], j0):
                    np.multiply(solved, r[i, j], out=tmp)
                    np.subtract(col, tmp, out=col)
                np.divide(col, r[j, j], out=col)


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
            acc = _acc_dtype(x, y)
            groups.append([_cast(xs, acc).T @ _cast(ys, acc)
                           for xs, ys in zip(x.shards, y.shards)])
            charge_shards(x, "dot", x.n_cols, y.n_cols, _wb(x, y))
        return groups

    def block_dot(self, x, y) -> np.ndarray:
        return x.comm.allreduce(self._dot_partials([(x, y)]))[0]

    def block_dot_multi(self, pairs) -> list[np.ndarray]:
        return pairs[0][0].comm.allreduce(self._dot_partials(pairs))

    def column_norms(self, x) -> np.ndarray:
        acc = _acc_dtype(x)
        partials = []
        for s in x.shards:
            ss = _cast(s, acc)
            partials.append(np.einsum("ij,ij->j", ss, ss))
        charge_shards(x, "norm", x.n_cols, x.word_bytes)
        return np.sqrt(x.comm.allreduce([partials])[0])

    # -- local (communication-free) updates ------------------------------
    def block_update(self, v, q, r: np.ndarray) -> None:
        for vs, qs in zip(v.shards, q.shards):
            w = _cast(vs, _F64)
            _gemm_sub(w, _cast(qs, _F64), r)
            if w is not vs:
                vs[...] = v.quantize(w)
        charge_shards(v, "update", q.n_cols, v.n_cols, _wb(v, q))

    def trsm_inplace(self, v, r: np.ndarray) -> None:
        _trsm_check(r, v.shards)
        for vs in v.shards:
            w = _cast(vs, _F64)
            _trsm_rows(w, r)
            if w is not vs:
                vs[...] = v.quantize(w)
        charge_shards(v, "trsm", v.n_cols, v.word_bytes)

    def scale_columns(self, v, scales: np.ndarray) -> None:
        for vs in v.shards:
            vs[...] = v.quantize(_cast(vs, _F64) * scales[np.newaxis, :])
        charge_shards(v, "scale", v.n_cols, 1, v.word_bytes)

    def lincomb(self, out, terms) -> None:
        for r, outs in enumerate(out.shards):
            acc = terms[0][0] * _cast(terms[0][1].shards[r], _F64)
            for alpha, x in terms[1:]:
                acc += alpha * _cast(x.shards[r], _F64)
            outs[...] = out.quantize(acc)
        charge_shards(out, "axpy", out.n_cols, len(terms),
                      _wb(out, *[t[1] for t in terms]))

    def copy_into(self, dst, src) -> None:
        dst.assign_from(src)  # rounds to dst's storage grid when needed
        charge_shards(src, "axpy", src.n_cols, 1, _wb(dst, src))

    def matvec_small(self, v, coeffs: np.ndarray, out) -> None:
        for vs, outs in zip(v.shards, out.shards):
            outs[...] = out.quantize(_cast(vs, _F64) @ coeffs)
        charge_shards(v, "matvec", v.n_cols, out.n_cols, _wb(v, out))

    # -- sketching --------------------------------------------------------
    def _sketch_partials(self, v, op) -> list[np.ndarray]:
        """Per-rank contributions ``S[:, rows_r] @ V_r`` + local charge.

        ``op`` is duck-typed (a :class:`repro.sketch.operators`
        ``SketchOperator``): ``partial(shard, row_offset)`` produces one
        shard's contribution, ``local_op(k)`` names its table entry.
        """
        comm = v.comm
        offsets = v.partition.offsets
        # operators upcast low-precision shards internally, so partial
        # sketches are always fp64-accumulated; charge at the storage
        # word size (the shard stream dominates the sketch kernel)
        partials = [op.partial(shard, int(offsets[r]))
                    for r, shard in enumerate(v.shards)]
        # sketch application runs on the driver process under the mp
        # backend (see ROADMAP), so tag the charge for calibration
        name, *args = op.local_op(v.n_cols)
        kernel, formula = LOCAL_OPS[name]
        comm.charge(kernel, comm.cost.record(lambda c: [
            formula(c, s.shape[0], *args, v.word_bytes) for s in v.shards]),
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


def _over_runs(part, kernel, dtype, *flats) -> np.ndarray:
    """``kernel(*stacks)`` per run of equal-count ranks, concatenated
    over the rank axis; a stack is the run's rows of one flat array,
    cast to ``dtype`` and seen as ``(ranks_in_run, rows, k)``."""
    parts = [kernel(*(_cast(f[lo:lo + n_ranks * rows], dtype)
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
                _acc_dtype(x, y), x.flat, y.flat))
            charge_rows(x, "dot", x.n_cols, y.n_cols, _wb(x, y))
        return groups

    def column_norms(self, x) -> np.ndarray:
        partials = _over_runs(
            x.partition, lambda w: np.einsum("rij,rij->rj", w, w),
            _acc_dtype(x), x.flat)
        charge_rows(x, "norm", x.n_cols, x.word_bytes)
        return np.sqrt(x.comm.allreduce([partials])[0])

    # -- local updates ----------------------------------------------------
    def block_update(self, v, q, r: np.ndarray) -> None:
        fv, fq = v.flat, q.flat
        kq, kv = q.n_cols, v.n_cols
        for rows, count, _ in _rank_tiles(v.partition, max(kq, kv)):
            w = _cast(fv[rows], _F64)  # fp64: the rows themselves
            _gemm_sub(w, _cast(fq[rows], _F64), r, count)
            if v.storage != "fp64":
                fv[rows] = v.quantize(w)
        charge_rows(v, "update", kq, kv, _wb(v, q))

    def trsm_inplace(self, v, r: np.ndarray) -> None:
        flat = v.flat
        _trsm_check(r, [flat])
        for rows, count, _ in _rank_tiles(v.partition,
                                           min(v.n_cols, _TRSM_BLOCK)):
            w = _cast(flat[rows], _F64)  # fp64: the rows themselves
            _trsm_rows(w, r, count)
            if v.storage != "fp64":
                flat[rows] = v.quantize(w)
        charge_rows(v, "trsm", v.n_cols, v.word_bytes)

    def scale_columns(self, v, scales: np.ndarray) -> None:
        flat = v.flat
        if v.storage == "fp64":
            flat *= scales
        else:
            for rows in _row_tiles(*flat.shape):
                flat[rows] = v.quantize(_cast(flat[rows], _F64) * scales)
        charge_rows(v, "scale", v.n_cols, 1, v.word_bytes)

    def lincomb(self, out, terms) -> None:
        operands = [t[1] for t in terms]
        fout = out.flat
        for rows in _row_tiles(*fout.shape):
            acc = terms[0][0] * _cast(operands[0].flat[rows], _F64)
            for alpha, x in terms[1:]:
                acc += alpha * _cast(x.flat[rows], _F64)
            fout[rows] = out.quantize(acc)
        charge_rows(out, "axpy", out.n_cols, len(terms), _wb(out, *operands))

    def copy_into(self, dst, src) -> None:
        dst.assign_from(src)  # rounds to dst's storage grid when needed
        charge_rows(dst, "axpy", src.n_cols, 1, _wb(dst, src))

    def matvec_small(self, v, coeffs: np.ndarray, out) -> None:
        fout, fv = out.flat, v.flat
        kv, kout = v.n_cols, out.n_cols
        for rows, count, each in _rank_tiles(v.partition, max(kv, kout)):
            fout[rows] = out.quantize(
                np.matmul(_cast(fv[rows], _F64).reshape(count, each, kv),
                          coeffs).reshape(count * each, kout))
        charge_rows(v, "matvec", kv, kout, _wb(v, out))

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
            formula(c.times(n_ranks), rows, *args, v.word_bytes)
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
