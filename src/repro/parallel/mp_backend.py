"""Real multiprocess communicator: the ``"mp"`` executor backend.

:class:`MpComm` implements the :class:`~repro.parallel.api.Communicator`
protocol with *actual* OS processes — one persistent worker per rank,
zero dependencies beyond the standard library: ``multiprocessing`` for
the ranks and ``multiprocessing.shared_memory`` for shard storage and
the reduction slabs.

Execution model
---------------
* :meth:`MpComm.alloc` places the storage of every library-allocated
  multivector (one column-major ``(n, k)`` array each) in a
  shared-memory segment, so each worker can reach any shard.
* Global reductions are the inherited pack -> fold -> unpack core with
  only the fold's *transport* replaced: the packed float64 buffer is
  scattered into a shared ``(size, cap)`` slab and the workers fold the
  slots **in the same recursive-doubling pair order** as
  :meth:`SimComm._fold` — worker ``a`` executes ``slot[a] += slot[b]``
  for its level pair, with a barrier between levels — so the reduced
  result is bit-identical to the simulator's on the same problem.
* :meth:`MpComm.exec_spmv` runs the distributed SpMV on the workers:
  each rank gathers the operand from the shared stack (the halo-exchange
  analogue) and computes its own block row.
* The communication-avoiding MPK's ghost-zone loops stay driver-executed
  (they are already plain NumPy over shared arrays); its wall clock is
  still measured.
Measurement model (the planner/executor split)
----------------------------------------------
``MpComm.tracer`` accumulates **measured** wall-clock seconds: every
charge records the elapsed time since the previous one
(``perf_counter`` deltas), which attributes each stretch of real work to
the kernel charged right after it — the library's convention is to
charge immediately after the work a kernel models.  ``MpComm.modeled``
is the *modeled twin*: every cost formula is evaluated by the inherited
:class:`SimComm` code (this module computes none), with the phase stack
aliased so one ``tracer.phase(...)`` region drives both streams.  A
solve on the mp backend therefore yields predicted AND measured numbers
for every phase, and ``modeled`` matches a ``backend="sim"`` run
bit-for-bit.

Hygiene: workers are daemons, every blocking wait has a timeout, a
dead worker surfaces as a :class:`~repro.exceptions.CommunicatorError`
naming the rank and the op, and :meth:`close` (also wired to a
``weakref.finalize``) tears down processes and unlinks every shared
segment.
"""

from __future__ import annotations

import time
import traceback
import weakref

import multiprocessing as mp
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.exceptions import CommunicatorError
from repro.parallel.communicator import SimComm
from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import Tracer

_MIN_ARENA_ELEMS = 4096


def _reduce_schedule(size: int) -> list[list[tuple[int, int]]]:
    """Recursive-doubling levels over slot indices.

    Level ``l`` holds ``(a, b)`` pairs meaning *slot a absorbs slot b*;
    folding them in order reproduces :meth:`SimComm._fold` exactly
    (row ``i + half`` onto row ``i`` per level, odd leftover carried).
    """
    idx = list(range(size))
    levels: list[list[tuple[int, int]]] = []
    while len(idx) > 1:
        half = len(idx) // 2
        levels.append([(idx[i], idx[i + half]) for i in range(half)])
        idx = idx[:half] + (idx[-1:] if len(idx) % 2 else [])
    return levels


def _attach_silent(name: str) -> SharedMemory:
    """Attach a segment created by the driver without tracking it.

    The driver's resource tracker owns cleanup; letting the worker's
    attach register the name too either double-books the shared tracker
    (fork) or schedules a bogus unlink at worker exit (spawn).  Python
    3.13 has ``track=False`` for this; earlier versions need the
    register hook silenced around the attach.
    """
    try:
        return SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _view(segments: dict, desc: dict) -> np.ndarray:
    """Materialize an ndarray described by ``desc`` over a shared segment."""
    shm = segments.get(desc["seg"])
    if shm is None:
        shm = _attach_silent(desc["seg"])
        segments[desc["seg"]] = shm
    return np.ndarray(desc["shape"], dtype=np.dtype(desc["dtype"]),
                      buffer=shm.buf, offset=desc["offset"],
                      strides=desc["strides"])


def _worker_main(rank: int, size: int, conn, barrier, timeout: float) -> None:
    """Per-rank worker loop (module-level: spawn-start compatible)."""
    import scipy.sparse as sp

    from repro.dd.core import dd_add

    segments: dict[str, SharedMemory] = {}
    matrices: dict[int, "sp.csr_matrix"] = {}

    def send(ack: dict) -> None:
        # echo the command token so the driver can tell this ack from a
        # stale one left by a command that timed out
        ack["tok"] = cmd.get("tok")
        conn.send(ack)

    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            break
        op = cmd.get("op")
        try:
            if op == "exit":
                send({"ok": True})
                break
            if op == "matrix":
                matrices[cmd["token"]] = sp.csr_matrix(
                    (cmd["data"], cmd["indices"], cmd["indptr"]),
                    shape=cmd["shape"])
                send({"ok": True})
            elif op == "reduce":
                shm = segments.get(cmd["arena"])
                if shm is None:
                    shm = _attach_silent(cmd["arena"])
                    segments[cmd["arena"]] = shm
                n = cmd["elems"]
                arena = np.ndarray((size, cmd["cap"]), dtype=np.float64,
                                   buffer=shm.buf)
                dd = cmd["mode"] == "dd"
                h = n // 2
                for pairs in cmd["levels"]:
                    for a, b in pairs:
                        if a != rank:
                            continue
                        if dd:
                            hi, lo = dd_add(
                                (arena[a, :h], arena[a, h:n]),
                                (arena[b, :h], arena[b, h:n]))
                            arena[a, :h] = hi
                            arena[a, h:n] = lo
                        else:
                            arena[a, :n] += arena[b, :n]
                    barrier.wait(timeout)
                send({"ok": True})
            elif op == "spmv":
                t0 = time.perf_counter()
                x = _view(segments, cmd["x"])
                # assemble the global operand from the shared stack — the
                # executor's halo exchange (same values/dtype the
                # simulator feeds ``block @ x_global``)
                x_global = np.asarray(x[:, :, 0]).reshape(-1)
                t1 = time.perf_counter()
                block = matrices[cmd["mat"]]
                y = block @ x_global
                out = _view(segments, cmd["out"])
                out[rank, :, 0] = y
                t2 = time.perf_counter()
                send({"ok": True, "gather": t1 - t0, "compute": t2 - t1})
            else:
                send({"ok": False, "error": f"unknown op {op!r}"})
        except Exception:
            send({"ok": False, "error": traceback.format_exc()})
    for shm in segments.values():
        try:
            shm.close()
        except BufferError:
            pass
    conn.close()


def _cleanup(conns, procs, shms) -> None:
    """Tear down workers and shared segments (close() and GC finalizer)."""
    for conn in conns:
        try:
            conn.send({"op": "exit"})
        except (OSError, ValueError):
            pass
    for p in procs:
        p.join(timeout=5.0)
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for shm in shms:
        try:
            shm.close()
        except BufferError:
            # a live multivector still exports the buffer; the mapping
            # dies with the process, unlink below removes the name
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class MpComm(SimComm):
    """Communicator whose ranks are real ``multiprocessing`` workers.

    Same constructor surface as :class:`SimComm`; ``tracer`` here
    accumulates **measured** wall clock while :attr:`modeled` carries the
    simulator's predicted charges for the identical run.  Close it when
    done (context-manager friendly); ``Simulation.close`` does so for
    simulations constructed with ``backend="mp"``.
    """

    backend = "mp"

    def __init__(self, machine: MachineSpec, size: int,
                 tracer: Tracer | None = None,
                 engine: str | None = None, *,
                 timeout: float = 60.0) -> None:
        super().__init__(machine, size, tracer, engine=engine)
        self.tracer.stream = "measured"
        # modeled charges land on the twin
        self.modeled = Tracer()
        # one `with tracer.phase(...)` (and one cycle marker) drives
        # both streams
        self.tracer.share_phase_stack(self.modeled)
        self._timeout = float(timeout)
        self._schedule = _reduce_schedule(self.size)
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        self._barrier = ctx.Barrier(self.size)
        self._conns: list = []
        self._procs: list = []
        self._shms: list[SharedMemory] = []
        self._segments: list[tuple[str, int, int]] = []  # (name, addr, nbytes)
        # every command carries a token its acks echo: an ack of another
        # token is stale (its command timed out) and is dropped
        self._tok = 0
        # the reduction slab, grown when a fold is wider than it
        self._slab: tuple[SharedMemory, np.ndarray] | None = None
        self._pending: dict[str, float] = {}
        self._matrix_tokens: dict[int, int] = {}
        self._matrix_keep: list = []
        self._closed = False
        for r in range(self.size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(r, self.size, child, self._barrier, self._timeout),
                daemon=True, name=f"repro-mp-rank{r}")
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        # process sentinel -> rank: ready once that worker has exited
        self._sentinels = {p.sentinel: r for r, p in enumerate(self._procs)}
        self._finalizer = weakref.finalize(
            self, _cleanup, self._conns, self._procs, self._shms)
        self._mark = time.perf_counter()

    # -- measured-time bookkeeping -------------------------------------
    def _charge_measured(self, kernel, count, payload_bytes,
                         driver_side) -> None:
        """The measured record beside the modeled charge the inherited
        funnel just put on the twin: wall clock since the previous
        charge, together with whatever a worker round-trip parked for
        it."""
        measured = self._pending.pop(kernel, 0.0) + self._take_elapsed()
        self.tracer.add(kernel, measured, count=count,
                        payload_bytes=payload_bytes, driver_side=driver_side)

    def mark(self) -> None:
        """Reset the wall-clock attribution mark (drop setup time)."""
        self._mark = time.perf_counter()

    def _take_elapsed(self) -> float:
        now = time.perf_counter()
        dt = now - self._mark
        self._mark = now
        return dt if dt > 0.0 else 0.0

    # -- worker round-trips --------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise CommunicatorError("MpComm is closed")

    def _next_tok(self) -> int:
        self._tok += 1
        return self._tok

    def _lost_rank(self, rank: int, opname: str,
                   detail: str) -> CommunicatorError:
        """The error for a worker that is gone.  The barrier is broken
        for good, so a survivor waiting on the lost rank fails at once
        rather than at its timeout."""
        try:
            self._barrier.abort()
        except Exception:
            pass
        return CommunicatorError(
            f"rank {rank} is unreachable during {opname!r} ({detail})")

    def _send(self, rank: int, msg: dict) -> None:
        try:
            self._conns[rank].send(msg)
        except (OSError, EOFError) as exc:
            raise self._lost_rank(rank, msg["op"], repr(exc)) from exc

    def _send_all(self, cmd: dict) -> int:
        """Dispatch one token-stamped command to every worker.  Per-pipe
        FIFO keeps command order — and hence the shared barrier sequence
        — identical on every worker."""
        self._require_open()
        tok = self._next_tok()
        stamped = dict(cmd, tok=tok)
        for r in range(self.size):
            self._send(r, stamped)
        return tok

    def _recv_ack(self, rank: int, tok: int, opname: str) -> dict:
        """Receive rank's ack for ``tok``, dropping stale acks of earlier
        commands.  Waits on every worker's exit sentinel too: a rank
        that died fails the wait at once, even while this rank still
        waits for it."""
        # loaded with the pipes (ctx.Pipe), not on every ``import repro``
        from multiprocessing.connection import wait as wait_ready

        conn = self._conns[rank]
        deadline = time.perf_counter() + self._timeout
        while True:
            budget = deadline - time.perf_counter()
            ready = wait_ready([conn, *self._sentinels], max(budget, 0.0))
            if conn in ready:
                try:
                    ack = conn.recv()
                except (OSError, EOFError) as exc:
                    raise self._lost_rank(rank, opname, repr(exc)) from exc
            elif ready:
                dead = self._sentinels[ready[0]]
                raise self._lost_rank(
                    dead, opname,
                    f"exit code {self._procs[dead].exitcode}")
            else:
                raise CommunicatorError(
                    f"rank {rank} did not answer {opname!r} within "
                    f"{self._timeout}s")
            if ack.get("tok") == tok:
                return ack

    def _collect(self, tok: int, opname: str) -> list[dict]:
        acks = [self._recv_ack(r, tok, opname) for r in range(self.size)]
        errors = [(r, a["error"]) for r, a in enumerate(acks)
                  if not a.get("ok")]
        if errors:
            try:
                self._barrier.reset()
            except Exception:
                pass
            rank, err = errors[0]
            raise CommunicatorError(
                f"rank {rank} failed {opname!r}:\n{err}")
        return acks

    def _roundtrip(self, cmd: dict) -> list[dict]:
        return self._collect(self._send_all(cmd), cmd.get("op"))

    # -- reduction transport: fold a packed buffer on the workers -------
    def _transport(self, buf: np.ndarray, dd: bool = False) -> np.ndarray:
        """Scatter one row per rank into the shared ``(size, cap)``
        float64 slab, fold it on the workers and copy slot 0 out.  A
        fold wider than the slab replaces it with a larger one (the old
        segment is unlinked by :meth:`close`, like every other)."""
        self._require_open()
        n = buf.shape[1]
        if self._slab is None or self._slab[1].shape[1] < n:
            cap = max(_MIN_ARENA_ELEMS, n)
            shm = SharedMemory(create=True, size=self.size * cap * 8)
            self._shms.append(shm)
            self._slab = (shm, np.ndarray((self.size, cap), dtype=np.float64,
                                          buffer=shm.buf))
        shm, slab = self._slab
        slab[:, :n] = buf
        self._roundtrip({"op": "reduce", "arena": shm.name,
                         "cap": slab.shape[1], "elems": n,
                         "levels": self._schedule,
                         "mode": "dd" if dd else "sum"})
        return slab[0, :n].copy()

    # -- shard storage and worker-executed SpMV ------------------------
    def alloc(self, n: int, k: int) -> np.ndarray:
        """Zeroed column-major float64 ``(n, k)`` array in a shared-memory
        segment.

        The segment lives until :meth:`close`; vectors allocated on this
        communicator must not outlive it.
        """
        self._require_open()
        shape = (int(n), int(k))
        nbytes = max(1, 8 * int(np.prod(shape, dtype=np.int64)))
        shm = SharedMemory(create=True, size=nbytes)
        self._shms.append(shm)
        arr = np.ndarray(shape, buffer=shm.buf, order="F")
        arr[...] = 0
        addr = arr.__array_interface__["data"][0]
        self._segments.append((shm.name, addr, nbytes))
        return arr

    def _describe(self, arr: np.ndarray) -> dict | None:
        """Locate ``arr`` inside a registered shared segment (else None)."""
        addr = arr.__array_interface__["data"][0]
        span = arr.itemsize + sum(
            (n - 1) * abs(s) for n, s in zip(arr.shape, arr.strides) if n)
        for name, base, nbytes in self._segments:
            if base <= addr and addr + span <= base + nbytes:
                return {"seg": name, "offset": addr - base,
                        "shape": arr.shape, "strides": arr.strides,
                        "dtype": arr.dtype.str}
        return None

    def _matrix_token(self, matrix) -> int | None:
        token = self._matrix_tokens.get(id(matrix))
        if token is None:
            token = len(self._matrix_keep)
            tok = self._next_tok()  # per-rank payloads, one shared token
            for r in range(self.size):
                block = matrix.local_block(r)
                self._send(r, {"op": "matrix", "token": token, "tok": tok,
                               "data": block.data, "indices": block.indices,
                               "indptr": block.indptr, "shape": block.shape})
            self._collect(tok, "matrix")
            self._matrix_tokens[id(matrix)] = token
            self._matrix_keep.append(matrix)  # pins id() for the cache
        return token

    def exec_spmv(self, matrix, x, out) -> bool:
        """Run ``out = A @ x`` on the workers when both operands live in
        shared memory; returns False (driver fallback) otherwise.

        The measured cost is split into a halo part (slowest worker's
        operand gather) and a local-compute part, parked in ``_pending``
        for the `charge_halo` / `charge("spmv_local", ...)` calls the
        caller issues next.  With spans enabled, each worker's own
        gather/compute timings land as rank-tagged spans (per-rank trace
        lanes) without touching the accumulators.
        """
        if self._closed:
            return False
        if x.stack is None or out.stack is None:
            return False
        xdesc = self._describe(x.stack)
        odesc = self._describe(out.stack)
        if xdesc is None or odesc is None:
            return False
        token = self._matrix_token(matrix)
        acks = self._roundtrip({"op": "spmv", "mat": token, "x": xdesc,
                                "out": odesc})
        elapsed = self._take_elapsed()
        if self.tracer.spans_enabled:
            base = self.tracer.clock
            for r, ack in enumerate(acks):
                g = max(float(ack["gather"]), 0.0)
                c = max(float(ack["compute"]), 0.0)
                self.tracer.record_span("halo", base, base + g,
                                        phase="spmv", rank=r)
                self.tracer.record_span("spmv_local", base + g, base + g + c,
                                        phase="spmv", rank=r)
        gather = max(a["gather"] for a in acks)
        halo = min(max(gather, 0.0), elapsed)
        self._pending["halo"] = self._pending.get("halo", 0.0) + halo
        self._pending["spmv_local"] = (self._pending.get("spmv_local", 0.0)
                                       + (elapsed - halo))
        return True

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Terminate workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"MpComm(machine={self.machine.name!r}, size={self.size}, "
                f"{state})")
