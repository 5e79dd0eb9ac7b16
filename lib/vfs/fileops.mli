(** The file layer both file systems share.

    LFS and the read-optimized file system differ in where a file's
    blocks land and how they reach disk (Sections 2 and 5.3), not in how
    bytes map onto cached pages, how inode numbers are handed out, or
    what the system-call surface looks like. {!Make} implements that
    common part once: byte-range read, write and truncate over pages,
    inode-number allocation, the namespace ({!Namespace.Make} is applied
    here and nowhere else), [stat], and the {!Vfs.t} record with its
    crash check. Each file system supplies only the hooks of {!FS}: how a
    page is fetched, how pages and inodes are marked dirty, where a freed
    block goes, how an inode slot is claimed and released, and its
    maintenance [tick], [fsync] and [sync]. The maintenance sections
    those run in are kept here too, in {!state}, with one rule for
    both. *)

val root_inum : int
(** Inode number of the root directory on both file systems. *)

module Itbl : Hashtbl.S with type key = int
(** Tables keyed by inode number, hashed without a C call. *)

type state = {
  inodes : Inode.t Itbl.t;  (** in-memory inode cache *)
  mutable next_inum : int;  (** lowest inode number never handed out *)
  mutable free_inums : int list;  (** freed numbers, reused first *)
  mutable crashed : bool;
  clock : Clock.t;
  mutable sections : int list;  (** tags of the open {!section}s *)
}
(** The volatile file-layer state a file system keeps. *)

val state : Clock.t -> state
(** Empty cache, [next_inum = root_inum], not crashed, no section open. *)

val check_alive : state -> unit
(** @raise Vfs.Crashed once [crashed] is set. *)

(** {2 Maintenance sections}

    The paths that flush or relocate blocks — the syncer, a checkpoint,
    the cleaner, a commit force, [fsync], [sync] and a cache-pressure
    writeback — update shared block addresses and then park in disk I/O
    partway through. Each runs inside a {!section}, and both file
    systems ask the same two questions of the open sections:

    - {!idle}: no section is open. Maintenance that starts on its own
      (the syncer, the cleaner and a pending checkpoint, run from
      [tick] or from the LFS daemons) starts only then, so it never
      runs under a flush that is half done; an LFS commit force that
      finds the log reserve low waits for it.
    - {!in_section}: the calling process owns an open section. Only
      such a process may read the platter directly on a cache miss
      (LFS [get_page]); any other joins the disk queue behind the
      in-flight write, or it could read bytes the write is about to
      replace.

    Sections overlap under a scheduler (one group-commit flush parks in
    its segment write while the next begins, or two processes [fsync]
    at once), so the open tags form a multiset, not a flag: a scalar
    saved and restored around each section lets the first to finish
    resurrect a finished owner and gate maintenance off for the rest of
    the run. *)

val section : state -> (unit -> 'a) -> 'a
(** [section st f] runs [f] inside a section tagged with the calling
    scheduler process ([0], matching every caller, outside any
    process). The section closes when [f] returns or raises.

    A section is also a buffer scope ({!Blockpool.scope}) for its whole
    extent, so maintenance may hold frames across a park or an eviction
    without opening a scope of its own (cache.mli). *)

val idle : state -> bool
(** No section is open. *)

val in_section : state -> Sched.t -> bool
(** The running process of [sched] owns an open section, or a section
    opened outside any process is open. *)

val open_forever : state -> unit
(** Open a section that matches every caller and never closes: a
    surface that never writes (the LFS snapshot view) keeps its readers
    on the direct path and its maintenance off. It opens no buffer
    scope, which would never close and so stop the block pool's reuse
    for good. *)

val cached : state -> int -> (unit -> Inode.t option) -> Inode.t option
(** [cached st inum load] is the cached inode, or else [load ()], which
    is cached when it finds one. *)

val rebuild_free_inums : state -> allocated:(int -> bool) -> unit
(** After mount: every number from [next_inum - 1] down to 2 that is not
    [allocated] becomes free (lowest first in the list). *)

val iter_allocated : state -> (int -> unit) -> unit
(** [f inum] for every number from {!root_inum} to [next_inum - 1] that
    is not in [free_inums], in increasing order: the allocated inodes
    as the file layer sees them, unflushed frees and allocations
    included. *)

module type FS = sig
  type t

  val name : string
  (** ["lfs"] or ["ffs"]: {!Vfs.t}'s name. *)

  val max_inodes : int

  val protection : bool
  (** Whether [set_protected] is supported (only with the embedded
      transaction manager). *)

  val state : t -> state
  val config : t -> Config.t
  val clock : t -> Clock.t
  val stats : t -> Stats.t
  val cache : t -> Cache.t
  val block_size : t -> int

  val iget : t -> int -> Inode.t
  (** @raise Vfs.Error [Not_found] for an unallocated inode. *)

  val get_page : t -> inum:int -> lblock:int -> Cache.frame
  (** The cached frame of a page, read from disk on a miss (zeros for a
      hole). *)

  val page_dirty : t -> Cache.frame -> unit
  (** A page's bytes changed. *)

  val inode_dirty : t -> Inode.t -> unit
  (** The inode's record changed (size, map or attributes). *)

  val wrote : t -> Inode.t -> unit
  (** Called once after a write's page loop, after any size change. *)

  val free_block : t -> int -> unit
  (** A block address a truncate released (0 and metadata addresses are
      ignored). *)

  val slot_alloc : t -> Inode.t -> unit
  (** A new inode, already cached, needs an on-disk slot. *)

  val slot_free : t -> int -> unit
  (** An inode number was released; its slot must be cleared. *)

  val tick : t -> unit
  (** Maintenance run before each charged operation. *)

  val fsync : t -> int -> unit
  val sync : t -> unit
end

module Make (F : FS) : sig
  val alloc_inode : F.t -> kind:Vfs.file_kind -> int
  val inum_of : F.t -> string -> int
  (** @raise Vfs.Error [Not_found]. *)

  val vfs : F.t -> Vfs.t
  (** The system-call surface. Every operation first raises
      {!Vfs.Crashed} if the file system has crashed. All but [size],
      [exists] and an unsupported [set_protected] then run [F.tick] and
      charge a system call; path operations that create, open or remove
      also charge a file operation. [prefetch] runs one [F.get_page] per
      block it takes through {!Sched.fork_join}, so its reads are
      issued concurrently. *)

  val read_only : F.t -> name:string -> guard:(unit -> unit) -> Vfs.t
  (** A read-only surface without maintenance or system-call charges.
      Every operation runs [guard] first; mutators then raise
      [Vfs.Error (Not_supported, _)]. *)
end
