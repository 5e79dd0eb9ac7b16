(** Simulated block device.

    The device is a platter of real bytes plus a service-time model with
    a tracked head position: each request pays

    - a seek, computed from the cylinder distance between the head and the
      target with a square-root curve anchored at the configured
      single-cylinder and full-stroke times;
    - half a rotation of latency (the deterministic expectation);
    - transfer time proportional to bytes moved.

    Sequential multi-block transfers ({!read_run} / {!write_run}) pay the
    positioning cost once and then stream at media rate — this asymmetry
    between one large sequential I/O and many small random I/Os is the
    entire physical basis of the paper's results (Section 2).

    Reads and writes move real bytes: the platter is the durable truth
    that crash-recovery tests re-mount.

    {b Extents.} The platter is stored as extents: the first
    [boot_blocks] blocks, then one extent per [extent_blocks] blocks, the
    last cut short at the end of the disk. {!Diskset} gives each spindle
    its boot region and its segment-sized stripe unit, so every LFS
    segment lies inside one extent. An extent that was never written is
    one read-only zero buffer shared by all such extents of every
    spindle; its first write ({!write_run_sub} and the other writes, a
    torn prefix included, or {!poke}) gives it a buffer of its own.
    Nothing that reads gives an extent a buffer, so a spindle holds only
    the extents written to it. *)

type t

exception Injected_crash
(** Raised from inside a write when the armed {!injector} cuts the power:
    the blocks the injector admitted are on the platter, the rest of the
    request (and everything after it) is lost. *)

type injector = {
  on_write : blkno:int -> nblocks:int -> int;
      (** Consulted once per write request, after service time is
          charged. Returns how many leading blocks of the request
          actually persist; anything less than [nblocks] tears the
          request at that block boundary and raises
          {!Injected_crash}. *)
  on_read : blkno:int -> nblocks:int -> bool;
      (** Consulted after each read; [true] injects one transient error:
          the device retries (a full revolution of latency and a
          ["disk.read_retries"] stat) and asks again. The injector must
          eventually answer [false] for the same request. *)
}

val create :
  ?prefix:string ->
  boot_blocks:int ->
  extent_blocks:int ->
  Clock.t ->
  Stats.t ->
  Config.disk ->
  t
(** A zero-filled device with the head parked at block 0, holding no
    extent yet; [boot_blocks] and [extent_blocks] set the extents (see
    above). [Clock] and [Stats] may be shared with other components of
    the same machine.
    [prefix] (default ["disk"]) names this spindle's stat keys
    ([<prefix>.busy], [<prefix>.seek], ...), so the members of a
    multi-disk set report per-disk counters and histograms. Queued
    (sorted-write) seeks are recorded under [<prefix>.seek.queued],
    separate from the cold-seek histogram [<prefix>.seek].
    @raise Invalid_argument on a non-positive size, block size or
    [extent_blocks], or a negative [boot_blocks]. *)

val set_injector : t -> injector option -> unit
(** Arm or disarm fault injection. [None] restores fault-free service.
    {!peek}/{!poke} bypass the injector (they model inspection of the
    platter, not I/O). *)

val nblocks : t -> int
val block_size : t -> int

val read : t -> int -> bytes
(** [read t blkno] services a one-block read and returns a fresh copy of
    the block's contents.
    @raise Invalid_argument on an out-of-range block number. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t blkno buf] services exactly the request {!read} does
    (same clock, head and [Stats] effects, same retries) and copies the
    block into [buf] instead of a fresh buffer.
    @raise Invalid_argument on an out-of-range block number or a buffer
    that is not exactly one block long. *)

val read_async : t -> int -> bytes -> unit
(** [read_async t blkno buf] is {!read_into}, except that when a
    {!Sched} scheduler is attached to the clock and the caller runs
    inside a process, the request joins a live device queue: a server
    process picks requests by C-LOOK elevator order from the current
    head position, holds the device for the service time while other
    processes run, then wakes the submitter. The block's contents are
    copied into [buf] when the server reaches the request, so a write
    served before it (a synchronous write already holding the arm, say)
    is seen; the caller leaves [buf] alone until the call returns.
    A scheduler abandoned by an exception (the power failing under it)
    takes its server and its waiting submitters with it; the first
    request queued under another scheduler drops the requests it left
    and starts a server of its own. *)

val write : t -> int -> bytes -> unit
(** [write t blkno data] services a one-block write. [data] must be
    exactly one block long. *)

val queue_depth : t -> int
(** Outstanding {!read_async} requests at this spindle, including the
    one being served. Zero whenever no scheduler process is waiting on
    the arm — the load signal the adaptive LFS cleaner backs off on —
    except that the requests an abandoned scheduler left count until a
    {!read_async} under another drops them. *)

val read_run : t -> int -> int -> bytes
(** [read_run t blkno n] reads [n] consecutive blocks as one sequential
    request, returning their concatenation in a fresh buffer: a copy
    taken from {!read_run_view}. *)

val read_run_view : t -> int -> int -> bytes * int
(** [read_run_view t blkno n] services exactly the request {!read_run}
    does (same clock, head and [Stats] effects, same retries) and
    returns [(b, off)]: the run is the [n * block_size] bytes of [b]
    from [off]. A run inside one extent is viewed in place, in that
    extent's buffer; a run that crosses an extent boundary is assembled
    into a new buffer at offset 0. The view is read-only, and its bytes
    stay those of the run only until the next write to those blocks; a
    caller that keeps it across a park must know that nothing rewrites
    them meanwhile. A view of a never-written extent is the shared zero
    buffer, so it keeps its zeros after a later write to that extent,
    and an assembled view keeps its bytes. *)

val write_run : t -> int -> bytes -> unit
(** [write_run t blkno data] writes [data] (a whole number of blocks) as
    one sequential request starting at [blkno]. Used by the LFS segment
    writer: one seek, one rotational delay, then pure streaming. The
    bytes are copied onto the platter; no reference to [data] is kept. *)

val write_run_sub : t -> int -> bytes -> off:int -> len:int -> unit
(** [write_run_sub t blkno data ~off ~len] is {!write_run} of the [len]
    bytes of [data] from [off], without copying them out first; a torn
    write keeps the same prefix. The bytes are read when the transfer
    lands, so the caller leaves them alone until the call returns.
    @raise Invalid_argument if [len] is not a positive whole number of
    blocks or the range lies outside [data]. *)

val write_queued : t -> int -> bytes -> unit
(** A delayed write issued from a sorted disk queue. Because the
    scheduler orders these among the other traffic, positioning is much
    cheaper than a cold random write: the seek is charged at three
    tenths and the rotational delay at three quarters. The resulting
    ~10 ms per 4 KB page (≈ 40 % of media bandwidth) matches the
    sorted-write ceiling the paper cites from the disk-scheduling study
    it references (Section 2). Used by the read-optimized file system's
    syncer. *)

val head : t -> int
(** Current head position (block number), exposed for scheduler tests. *)

val peek : t -> int -> bytes
(** Read a block {e without} charging any service time or moving the
    head. For consistency checkers and tests only. *)

val poke : t -> int -> bytes -> unit
(** Write a block without charging time. For test setup only. *)

val resident_extents : t -> int
(** How many extents have been written, and so hold a buffer of their
    own. For tests. *)

val service_time : t -> int -> nblocks:int -> float
(** [service_time t blkno ~nblocks] is the time a sequential request of
    [nblocks] starting at [blkno] would cost from the current head
    position, without performing it. *)
