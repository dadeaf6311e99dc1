"""Kernel-execution engines behind the costed block-BLAS layer.

The :mod:`repro.distla.blas` functions describe *what* a distributed
operation computes and charges; an engine decides *how* the per-rank
NumPy work executes:

* :class:`LoopEngine` — the reference path: one Python-level BLAS call
  per simulated rank (one GEMM per shard, one cost evaluation per rank).
* :class:`BatchedEngine` — executes equal-sized shards as a single
  batched kernel over the contiguous ``(ranks, rows, k)`` stack that
  :class:`~repro.distla.multivector.DistMultiVector` keeps for uniform
  partitions: ``block_dot`` becomes one ``matmul`` over the rank axis,
  ``lincomb``/``scale`` become whole-stack streaming ops, and the
  reduction tree folds with one vectorized add per level.  Any operand
  without a stack (ragged partition, caller-supplied shards) falls back
  to the loop path op-by-op, so results and charged costs never depend
  on which constructor built the vector.

Both engines preserve the MPI-faithful pairwise reduction order (see
:class:`~repro.parallel.communicator.SimComm`) and charge identical
modeled costs: uniform partitions make the per-rank cost formula the
same on every rank, so ``max(costs)`` equals the single evaluated value.

Selection: pass ``engine="loop"|"batched"`` to a blas call or a
:class:`~repro.ortho.backend.DistBackend`, bind one per communicator
(``SimComm(..., engine=...)``), or set the process default through
:func:`repro.config.set_engine` / the ``REPRO_ENGINE`` variable.

Storage precision: operands may store ``fp32``/``bf16`` (see
:mod:`repro.precision`).  Both engines then follow the same contract:
shard-local partials are *accumulated in float64* (unless every operand
explicitly opts into native ``fp32`` accumulation), the reduction tree
is always float64, and results written back into low-precision storage
are rounded to the storage grid.  Loop and batched paths apply the
identical casts in the identical order, so results stay bit-identical
per dtype, and local kernels are charged at the operands' storage word
size (``fp32`` panels move half the fp64 bytes).  All-fp64 operands
take the exact historical code paths.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro import config


def _all_fp64(*mvs) -> bool:
    """True when every operand stores fp64 (the historical fast paths)."""
    return all(mv.storage == "fp64" for mv in mvs)


def _acc_dtype(*mvs) -> np.dtype:
    """Dtype shard-local partials accumulate in before the fp64 tree.

    float64 unless *every* operand is low-precision storage that opted
    into native fp32 accumulation (``PrecisionPolicy(accumulate="fp32")``).
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
# loop engine (reference semantics)
# ---------------------------------------------------------------------------

class LoopEngine(KernelEngine):
    """One NumPy call per simulated rank — the reference execution path."""

    name = config.ENGINE_LOOP

    # -- reductions -----------------------------------------------------
    def _dot_partials(self, comm, pairs) -> list:
        """One reduction group per ``(X, Y)`` pair — rank ``r``
        contributes ``X_r.T @ Y_r`` — and one ``dot`` charge per pair."""
        groups = []
        for x, y in pairs:
            acc = _acc_dtype(x, y)
            groups.append([_cast(xs, acc).T @ _cast(ys, acc)
                           for xs, ys in zip(x.shards, y.shards)])
            costs = [comm.cost.gemm(xs.shape[0], x.n_cols, y.n_cols,
                                    word_bytes=_wb(x, y))
                     for xs in x.shards]
            comm.charge_local("dot", costs)
        return groups

    def block_dot(self, x, y) -> np.ndarray:
        return x.comm.allreduce(self._dot_partials(x.comm, [(x, y)]))[0]

    def block_dot_multi(self, pairs) -> list[np.ndarray]:
        comm = pairs[0][0].comm
        return comm.allreduce(self._dot_partials(comm, pairs))

    def post_block_dot_multi(self, pairs):
        """Posted :meth:`block_dot_multi`: local partials (and their
        charges) now, the fused allreduce in flight — settle with
        ``comm.wait(handle)``.  Results are bit-identical to the
        blocking call."""
        comm = pairs[0][0].comm
        return comm.post_allreduce(self._dot_partials(comm, pairs))

    def column_norms(self, x) -> np.ndarray:
        comm = x.comm
        acc = _acc_dtype(x)
        partials = []
        for s in x.shards:
            ss = _cast(s, acc)
            partials.append(np.einsum("ij,ij->j", ss, ss))
        costs = [comm.cost.blas1(s.size, n_streams=1, writes=0,
                                 word_bytes=x.word_bytes)
                 for s in x.shards]
        comm.charge_local("norm", costs)
        return np.sqrt(comm.allreduce([partials])[0])

    # -- local (communication-free) updates ------------------------------
    def block_update(self, v, q, r: np.ndarray) -> None:
        comm = v.comm
        if _all_fp64(v, q):
            for vs, qs in zip(v.shards, q.shards):
                vs -= qs @ r
        else:
            f64 = np.dtype(np.float64)
            for vs, qs in zip(v.shards, q.shards):
                vs[...] = v.quantize(_cast(vs, f64) - _cast(qs, f64) @ r)
        costs = [comm.cost.gemm_tall_update(vs.shape[0], q.n_cols, v.n_cols,
                                            word_bytes=_wb(v, q))
                 for vs in v.shards]
        comm.charge_local("update", costs)

    def trsm_inplace(self, v, r: np.ndarray) -> None:
        comm = v.comm
        k = v.n_cols
        f64 = np.dtype(np.float64)
        fast = _all_fp64(v)
        for vs in v.shards:
            if vs.shape[0]:
                # Solve R.T x.T = v.T  <=>  x = v R^{-1}; use the transposed
                # triangular solve to stay in C-contiguous layout.
                solved = scipy.linalg.solve_triangular(
                    r, _cast(vs, f64).T, trans="T", lower=False).T
                vs[...] = solved if fast else v.quantize(solved)
        costs = [comm.cost.trsm(vs.shape[0], k, word_bytes=v.word_bytes)
                 for vs in v.shards]
        comm.charge_local("trsm", costs)

    def scale_columns(self, v, scales: np.ndarray) -> None:
        comm = v.comm
        if _all_fp64(v):
            for vs in v.shards:
                vs *= scales[np.newaxis, :]
        else:
            f64 = np.dtype(np.float64)
            for vs in v.shards:
                vs[...] = v.quantize(_cast(vs, f64) * scales[np.newaxis, :])
        costs = [comm.cost.blas1(vs.size, n_streams=1, writes=1,
                                 word_bytes=v.word_bytes)
                 for vs in v.shards]
        comm.charge_local("scale", costs)

    def lincomb(self, out, terms) -> None:
        comm = out.comm
        fast = _all_fp64(out, *[t[1] for t in terms])
        f64 = np.dtype(np.float64)
        for r, outs in enumerate(out.shards):
            if fast:
                acc = terms[0][0] * terms[0][1].shards[r]
                for alpha, x in terms[1:]:
                    acc += alpha * x.shards[r]
                outs[...] = acc
            else:
                acc = terms[0][0] * _cast(terms[0][1].shards[r], f64)
                for alpha, x in terms[1:]:
                    acc += alpha * _cast(x.shards[r], f64)
                outs[...] = out.quantize(acc)
        costs = [comm.cost.blas1(s.size, n_streams=len(terms), writes=1,
                                 word_bytes=_wb(out, *[t[1] for t in terms]))
                 for s in out.shards]
        comm.charge_local("axpy", costs)

    def copy_into(self, dst, src) -> None:
        comm = dst.comm
        dst.assign_from(src)  # rounds to dst's storage grid when needed
        costs = [comm.cost.blas1(s.size, n_streams=1, writes=1,
                                 word_bytes=_wb(dst, src))
                 for s in src.shards]
        comm.charge_local("axpy", costs)

    def matvec_small(self, v, coeffs: np.ndarray, out) -> None:
        comm = v.comm
        if _all_fp64(v, out):
            for vs, outs in zip(v.shards, out.shards):
                outs[...] = vs @ coeffs
        else:
            f64 = np.dtype(np.float64)
            for vs, outs in zip(v.shards, out.shards):
                outs[...] = out.quantize(_cast(vs, f64) @ coeffs)
        costs = [comm.cost.gemm(vs.shape[0], v.n_cols, out.n_cols,
                                word_bytes=_wb(v, out))
                 for vs in v.shards]
        comm.charge_local("update", costs)

    # -- sketching --------------------------------------------------------
    def _sketch_partials(self, v, op) -> list[np.ndarray]:
        """Per-rank contributions ``S[:, rows_r] @ V_r`` + local charge.

        ``op`` is duck-typed (a :class:`repro.sketch.operators`
        ``SketchOperator``): ``partial(shard, row_offset)`` produces one
        shard's contribution, ``local_cost`` its modeled seconds.
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
        comm.charge_local(
            "dot", [op.local_cost(comm.cost, s.shape[0], v.n_cols,
                                  word_bytes=v.word_bytes)
                    for s in v.shards], driver_side=True)
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
        groups = self._dot_partials(v.comm, pairs)
        groups.append(self._sketch_partials(v, op))
        results = v.comm.allreduce(groups)
        return results[:-1], results[-1]


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------

class BatchedEngine(LoopEngine):
    """Single batched kernels over ``(ranks, rows, k)`` shard stacks.

    Inherits the loop implementations as the ragged/unstacked fallback;
    every override first checks that all operands carry a stack.
    """

    name = config.ENGINE_BATCHED

    #: Element cutoff (per operand stack) above which write-heavy kernels
    #: keep the per-rank loop: one rank's shard fits in cache, so the loop
    #: is effectively cache-tiled, while streaming a multi-MB stack plus
    #: its temporaries goes to DRAM.  GEMM reductions (``block_dot``) are
    #: exempt — BLAS tiles those internally, so batching never loses.
    #: Both paths are elementwise-identical, so this is purely a speed
    #: heuristic, never a semantics switch.
    stream_elems_max: int = 131_072  # 1 MiB of float64 per operand

    @staticmethod
    def _stacks(*mvs) -> list[np.ndarray] | None:
        stacks = [mv.stack for mv in mvs]
        if any(s is None for s in stacks):
            return None
        return stacks

    def _stream_stacks(self, *mvs) -> list[np.ndarray] | None:
        """Stacks for a write-heavy streaming kernel, or None to fall back
        (missing stack, or the written operand exceeds the cache cutoff)."""
        stacks = self._stacks(*mvs)
        if stacks is None or stacks[0].size > self.stream_elems_max:
            return None
        return stacks

    # -- reductions -----------------------------------------------------
    def _dot_partials(self, comm, pairs) -> list:
        """Stacked pairs contribute one ``(ranks, k_x, k_y)`` batched
        product; a pair without stacks takes the loop path on its own."""
        groups = []
        for x, y in pairs:
            stacks = self._stacks(x, y)
            if stacks is None:
                groups += super()._dot_partials(comm, [(x, y)])
                continue
            xs, ys = stacks
            acc = _acc_dtype(x, y)
            groups.append(np.matmul(_cast(xs, acc).transpose(0, 2, 1),
                                    _cast(ys, acc)))
            comm.charge_uniform(
                "dot", comm.cost.gemm(xs.shape[1], x.n_cols, y.n_cols,
                                      word_bytes=_wb(x, y)))
        return groups

    def column_norms(self, x) -> np.ndarray:
        stack = x.stack
        if stack is None:
            return super().column_norms(x)
        comm = x.comm
        work = _cast(stack, _acc_dtype(x))
        partials = np.einsum("rij,rij->rj", work, work)
        comm.charge_uniform(
            "norm", comm.cost.blas1(stack[0].size, n_streams=1, writes=0,
                                    word_bytes=x.word_bytes))
        return np.sqrt(comm.allreduce([partials])[0])

    # -- local updates ----------------------------------------------------
    def block_update(self, v, q, r: np.ndarray) -> None:
        stacks = self._stream_stacks(v, q)
        if stacks is None:
            return super().block_update(v, q, r)
        sv, sq = stacks
        comm = v.comm
        if _all_fp64(v, q):
            sv -= np.matmul(sq, r)
        else:
            f64 = np.dtype(np.float64)
            sv[...] = v.quantize(_cast(sv, f64) - np.matmul(_cast(sq, f64), r))
        comm.charge_uniform(
            "update",
            comm.cost.gemm_tall_update(sv.shape[1], q.n_cols, v.n_cols,
                                       word_bytes=_wb(v, q)))

    def trsm_inplace(self, v, r: np.ndarray) -> None:
        stack = v.stack
        if stack is None:
            return super().trsm_inplace(v, r)
        comm = v.comm
        ranks, rows, k = stack.shape
        if rows and k:
            # One triangular solve over all ranks' rows; reshape copies
            # only when the stack is a strided column view.
            flat = _cast(stack, np.dtype(np.float64)).reshape(ranks * rows, k)
            solved = scipy.linalg.solve_triangular(
                r, flat.T, trans="T", lower=False).T
            solved = solved.reshape(ranks, rows, k)
            stack[...] = (solved if _all_fp64(v) else v.quantize(solved))
        comm.charge_uniform("trsm", comm.cost.trsm(rows, k,
                                                   word_bytes=v.word_bytes))

    def scale_columns(self, v, scales: np.ndarray) -> None:
        stacks = self._stream_stacks(v)
        if stacks is None:
            return super().scale_columns(v, scales)
        stack = stacks[0]
        comm = v.comm
        if _all_fp64(v):
            stack *= scales[np.newaxis, np.newaxis, :]
        else:
            f64 = np.dtype(np.float64)
            stack[...] = v.quantize(_cast(stack, f64)
                                    * scales[np.newaxis, np.newaxis, :])
        comm.charge_uniform(
            "scale", comm.cost.blas1(stack[0].size, n_streams=1, writes=1,
                                     word_bytes=v.word_bytes))

    def lincomb(self, out, terms) -> None:
        stacks = self._stream_stacks(out, *[t[1] for t in terms])
        if stacks is None:
            return super().lincomb(out, terms)
        comm = out.comm
        fast = _all_fp64(out, *[t[1] for t in terms])
        f64 = np.dtype(np.float64)
        if fast:
            acc = terms[0][0] * stacks[1]
            for (alpha, _), stack in zip(terms[1:], stacks[2:]):
                acc += alpha * stack
            stacks[0][...] = acc
        else:
            acc = terms[0][0] * _cast(stacks[1], f64)
            for (alpha, _), stack in zip(terms[1:], stacks[2:]):
                acc += alpha * _cast(stack, f64)
            stacks[0][...] = out.quantize(acc)
        comm.charge_uniform(
            "axpy",
            comm.cost.blas1(stacks[0][0].size, n_streams=len(terms), writes=1,
                            word_bytes=_wb(out, *[t[1] for t in terms])))

    def copy_into(self, dst, src) -> None:
        stacks = self._stream_stacks(dst, src)
        if stacks is None:
            return super().copy_into(dst, src)
        comm = dst.comm
        stacks[0][...] = (stacks[1] if dst.storage == src.storage
                          else dst.quantize(stacks[1]))
        comm.charge_uniform(
            "axpy", comm.cost.blas1(stacks[1][0].size, n_streams=1, writes=1,
                                    word_bytes=_wb(dst, src)))

    def matvec_small(self, v, coeffs: np.ndarray, out) -> None:
        stacks = self._stream_stacks(out, v)
        if stacks is None:
            return super().matvec_small(v, coeffs, out)
        sout, sv = stacks
        comm = v.comm
        if _all_fp64(v, out):
            sout[...] = np.matmul(sv, coeffs)
        else:
            sout[...] = out.quantize(np.matmul(_cast(sv, np.dtype(np.float64)),
                                               coeffs))
        comm.charge_uniform(
            "update", comm.cost.gemm(sv.shape[1], v.n_cols, out.n_cols,
                                     word_bytes=_wb(v, out)))

    # -- sketching --------------------------------------------------------
    def _sketch_partials(self, v, op):
        """``(ranks, m, k)`` contribution stack (loop path without one)."""
        stack = v.stack
        if stack is None:
            return super()._sketch_partials(v, op)
        comm = v.comm
        partials = op.partial_stack(stack)
        comm.charge_uniform(
            "dot", op.local_cost(comm.cost, stack.shape[1], v.n_cols,
                                 word_bytes=v.word_bytes), driver_side=True)
        return partials


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

_INSTANCES: dict[str, KernelEngine] = {
    config.ENGINE_LOOP: LoopEngine(),
    config.ENGINE_BATCHED: BatchedEngine(),
}

# config.validate_engine (used by SimComm/DistBackend constructors) and
# this dispatch registry must never drift apart, or a name accepted at a
# binding site would still blow up inside the first BLAS call.
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


def resolve(engine: "str | KernelEngine | None", comm=None) -> KernelEngine:
    """Resolve an engine: explicit arg > communicator binding > config."""
    if isinstance(engine, KernelEngine):
        return engine
    if engine is not None:
        return get_engine(engine)
    if comm is not None and getattr(comm, "engine", None) is not None:
        return get_engine(comm.engine)
    return get_engine(config.get_engine())
