(** A set of spindles behind the single-device block API.

    The transaction study's multi-disk configurations need two placement
    policies (Section 5.3 discusses log-disk contention as the dominant
    cost of the user-level architectures):

    - {b dedicated log disk}: the write-ahead log gets its own spindle so
      commit forces never drag the head away from the data;
    - {b striped segments}: LFS segments are distributed round-robin
      across [ndisks] data spindles, segment-granular, so concurrent
      segment writes and cleaner reads proceed on independent heads.

    Both are driven by {!Config.fs} ([ndisks], [log_disk]). A set built
    with [ndisks = 1] and no log disk is a pure pass-through: every call
    forwards verbatim to the one member, so single-disk results are
    bit-for-bit identical to driving a {!Disk.t} directly.

    {b Address mapping.} The first 3 blocks (the LFS boot region:
    superblock and the two checkpoint slots, see [Tx_lfs.Layout]) always
    live on data disk 0 — except that when a log disk is present {e and}
    the set was created with [~route_checkpoints:true], the two
    checkpoint blocks move to the log spindle (sensible only when no
    file system occupies that spindle, i.e. the kernel-embedded setup;
    the user-level setups put a small FFS holding the WAL there).
    Above the boot region, logical segment [i] of size
    [fs.segment_blocks] maps whole onto data disk [i mod ndisks] at
    physical segment slot [i / ndisks] — a segment never straddles
    spindles, so segment writes and cleaner reads stay one sequential
    transfer.

    Members share one clock, so time on one spindle advances time for
    all — the synchronous-write paths model a single outstanding request
    per machine, while {!read_async} queues overlap per spindle exactly
    as with independent devices. Each member reports its own stat keys
    ([disk0.busy], [disklog.seek], ...; a singleton keeps the plain
    [disk.*] names). *)

type t

val create : ?route_checkpoints:bool -> Clock.t -> Stats.t -> Config.t -> t
(** Build the spindles described by [cfg.fs.ndisks] / [cfg.fs.log_disk],
    every member with the geometry of [cfg.disk]. Each member stores its
    platter as {!Disk} extents: the 3-block boot region, then one extent
    per [fs.segment_blocks] stripe unit, so every segment slot is one
    extent and a spindle holds only the segments written to it.
    [route_checkpoints] (default [false]) sends the LFS checkpoint
    blocks to the log spindle when one exists; leave it off whenever the
    log spindle hosts a file system of its own.
    @raise Invalid_argument if [ndisks < 1], or if striping is requested
    and a spindle cannot hold even one segment. *)

val primary : t -> Disk.t
(** Data disk 0 — where the boot region lives, and the whole device for
    a pass-through set. The read-optimized FFS, which has no segment
    structure to stripe, runs entirely on this member. *)

val log_disks : t -> Disk.t array
(** Every dedicated log spindle — with [cfg.fs.log_disk] set there is
    one per WAL stream ([max 1 cfg.fs.log_streams]), so each stream's
    forces run on their own head; empty when no log disk is
    configured. *)

val members : t -> (string * Disk.t) list
(** Every spindle with its stat-key prefix, data disks first
    (["disk"] for a singleton, else ["disk0"], ["disk1"], ...),
    then the log disks (["disklog"], ["disklog1"], ...) if present. *)

val nblocks : t -> int
(** Logical device size. For a striped set this is
    [3 + ndisks * per_spindle_segments * segment_blocks] — the boot
    region plus every segment slot on every data spindle. *)

val block_size : t -> int

val read : t -> int -> bytes

val read_into : t -> int -> bytes -> unit
(** {!Disk.read_into} on the owning member: {!read}'s request and
    charges, copied into the caller's one-block buffer. *)

val read_run_view : t -> int -> int -> bytes * int
(** [read_run_view t blkno n] reads [n] blocks with one sequential
    {!Disk.read_run_view} per extent, in logical order, and returns
    [(b, off)]: the run is the [n * block_size] bytes of [b] from
    [off]. A run on one extent (every LFS segment, under
    segment-granular striping) is the member's {!Disk.read_run_view},
    a view of the member's extent; only a run cut at a stripe or extent
    boundary is assembled into a new buffer, at offset 0, each extent
    copied as it is read. The view is read-only and holds the run's
    bytes only until the next write to those blocks, with the
    exceptions {!Disk.read_run_view} states: a view of a never-written
    extent stays zero and an assembled one keeps its bytes. *)

val read_async : t -> int -> bytes -> unit
(** Forwards to {!Disk.read_async} on the owning member: under a
    scheduler each spindle runs its own elevator server, so reads on
    different members overlap. *)

val write : t -> int -> bytes -> unit

val write_run_sub : t -> int -> bytes -> off:int -> len:int -> unit
(** [write_run_sub t blkno data ~off ~len] writes the [len] bytes of
    [data] from [off] as a run starting at [blkno]. It splits the run at
    spindle boundaries and issues one sequential {!Disk.write_run_sub}
    per extent, in logical order, each on its own range of [data]:
    nothing is copied before the transfer. The bytes reach the platter
    when the transfer lands, which under a scheduler is after the call
    parks, so the caller leaves [data] alone until the call returns; the
    platter keeps no reference to it afterwards.
    @raise Invalid_argument if [len] is not a positive whole number of
    blocks or the range lies outside [data]. *)

val peek : t -> int -> bytes
val poke : t -> int -> bytes -> unit

val queue_depth : t -> int
(** Total outstanding queued requests across every member spindle (data
    and log) — see {!Disk.queue_depth}. *)

val set_injector : t -> Disk.injector option -> unit
(** Install the same injector on {e every} member (or disarm all). A
    shared mutable injector closure therefore sees one global,
    deterministic write ordering across the whole set. *)
