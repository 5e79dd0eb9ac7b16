(** Operating-system buffer cache.

    Frames are keyed by [(file, logical block)] — not by physical address,
    because in a log-structured file system a block's physical address
    changes on every write; the mapping to disk addresses belongs to the
    owning file system, which supplies the {!set_writeback} hook used when
    a dirty victim must be evicted.

    Replacement is strict LRU over unpinned, unowned frames. Each frame
    also remembers when it was first dirtied so the 30-second syncer can
    find delayed writes, and a sequence number of its last modification
    so a user-space cleaner can detect "recently modified" blocks
    (Section 5.4).

    {b The write rule.} A frame is [Clean], [Dirty] or [Owned txn]. An
    in-kernel transaction's buffers stay in memory, unwritten, until its
    commit forces them (Section 4.5, restriction 1): an [Owned] frame
    holds unwritten bytes by construction, is never evicted, replaced,
    listed by {!dirty_frames} or cleaned by {!mark_clean}, and leaves
    that state only through {!release} (to [Dirty], for the commit's
    flush) or {!invalidate} (abort). Every writer asks {!writable}; the
    eviction walk asks {!evictable}. No other module compares owners.

    {b Buffers.} A frame's buffer comes from the process-wide
    {!Blockpool}: file systems read a missed block into {!Blockpool.take}
    and zero a new page or a hole in {!Blockpool.zeroed}, and a frame
    the cache drops (eviction, replacement, {!invalidate}) retires its
    buffer there. A retired buffer backs another frame only once every
    buffer scope open when it was retired has closed (blockpool.mli), so
    code that holds a frame or its bytes across a call that can evict or
    park does so inside a scope. Four functions open scopes:

    - [Fileops.section]: every file-system maintenance section is a
      scope. That covers the frames LFS gathers for a segment write
      (syncer, checkpoint, [sync], [fsync], commit force, cache-pressure
      write-back, cleaner pass, each [coalesce_file] batch) until their
      copy into the stage, and an FFS flush's frames across
      [frame_writes]' inode reads.
    - [Pager.with_op], at both lock grains: an access-method
      operation's views ([Btree]'s split decodes an ancestor's view
      after the child's gets). [Btree.iter] quiesces between leaves, and
      [Recno.iter] between records, so a scan recycles too.
    - [Ktxn.flush_pending]: the released batch across
      [Lfs.force_frames]' reserve stall, cleaning and write.
    - [Bufpool.flush_all]: pool frames across log forces and
      write-backs.

    Everything else runs outside any section and uses a frame before
    its next call that can evict or park: [Fileops]' read, write and
    truncate; the kernel and LIBTP read and write paths (inside
    [with_op] anyway); a transaction's owned frames (never evicted);
    and [Cache]'s own write-backs (the victim is pinned).

    The table packs a key into one int, [(file lsl 32) lor lblock], so
    a frame's key must have [0 <= lblock < 2^32] and
    [0 <= file < 2^30] on a 64-bit host: file systems number inodes from
    1 below [max_inodes] and blocks from 0. {!insert} rejects any other
    key. *)

type t

type state =
  | Clean
  | Dirty  (** unwritten bytes any writer may flush *)
  | Owned of int  (** unwritten bytes of this kernel transaction *)

type frame = private {
  file : int;  (** owning inode number *)
  lblock : int;  (** logical block within the file *)
  data : bytes;  (** exactly one block; mutated in place *)
  mutable state : state;
  mutable pins : int;
  mutable dirtied_at : float;  (** clock time of the first dirtying *)
  mutable modseq : int;  (** cache-wide sequence of last modification *)
  mutable prev : frame;
  mutable next : frame;
  mutable resident : bool;
}

exception Cache_full
(** Raised when every frame is pinned or transaction-owned and a new
    block must be brought in. *)

val create :
  Clock.t -> Stats.t -> Config.cpu -> capacity:int -> t

val set_writeback : t -> (frame -> unit) -> unit
(** [set_writeback t f] installs the file system's writeback routine,
    called when a dirty, unowned victim is evicted. [f] must persist the
    frame's contents; the cache marks the frame clean afterwards. *)

val resident : t -> int

val room : t -> int
(** Free frames: the capacity less {!resident}. An insert evicts
    nothing while this is positive. *)

val mem : t -> file:int -> lblock:int -> bool
(** Whether the block is cached. Unlike {!lookup} it charges nothing,
    counts no hit or miss and leaves the LRU order as it is. *)

val lookup : t -> file:int -> lblock:int -> frame option
(** Cache probe; charges one buffer lookup of CPU and refreshes LRU. A
    key out of range is never cached, so its probe misses. *)

val insert : t -> file:int -> lblock:int -> bytes -> frame
(** Bring a block into the cache (evicting if needed) and return its
    frame. The frame adopts [data] as its buffer, uncopied: the caller
    hands it over for good, since a dropped frame's buffer is retired to
    {!Blockpool} and may back another frame later. Any previous frame for the
    same key is replaced; if it was dirty its contents are written back
    through the {!set_writeback} hook first, never silently discarded.
    @raise Invalid_argument if the previous frame is pinned or owned by
    a kernel transaction, or if the key is out of range.
    @raise Cache_full if no frame can be evicted. *)

val mark_dirty : t -> frame -> unit
(** The frame's bytes changed: a [Clean] frame becomes [Dirty] (an
    [Owned] one stays owned), and [modseq] moves. *)

val mark_clean : t -> frame -> unit
(** A [Dirty] frame's bytes reached disk. Leaves an [Owned] frame owned:
    only its commit may write it. *)

val own : t -> frame -> int -> unit
(** Give the frame to kernel transaction [txn]: it becomes [Owned txn]
    and stays in memory until {!release} or {!invalidate}. *)

val release : t -> frame -> unit
(** An [Owned] frame becomes [Dirty]; others are unchanged. *)

val writable : frame -> bool
(** May a writer flush the frame now? Only a [Dirty] one. *)

val evictable : frame -> bool
(** Unpinned and not [Owned]. *)

val owned : frame -> bool
val owned_by : frame -> int -> bool

val pin : frame -> unit
val unpin : frame -> unit

val invalidate : t -> frame -> unit
(** Drop the frame without writing it back (transaction abort), and
    retire its buffer. *)

val dirty_frames : t -> ?file:int -> unit -> frame list
(** {!writable} frames (optionally of one file), oldest-dirtied
    first. *)

val dirty_frames_of : t -> (int -> bool) -> frame list
(** The {!writable} frames of every file [of_file] accepts, in one walk
    of the cache, oldest-dirtied first. The sort is stable, so the frames of
    one file come in the order [dirty_frames ~file] gives them. *)

val txn_frames : t -> int -> frame list
(** All frames owned by kernel transaction [txn]. *)

val file_frames : t -> int -> frame list

val modseq : t -> int
(** Current modification sequence number (monotone). *)
