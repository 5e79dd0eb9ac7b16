(** The LFS segment writer: the file system's state record, its usage
    and inode-map bookkeeping, the two log heads and the one function
    that lays out, seals and writes a partial segment, plus the
    checkpoint. {!Lfs} is the facade; {!Lfs_cleaner} and
    {!Lfs_recovery} work on the same record.

    {b What a partial may hold.} Every partial obeys {!Layout}'s partial
    rule (it ends inside its segment and its summary fits its block),
    and it is one of three kinds:
    - a hot partial, at the main head: data blocks, then the indirect,
      double-indirect and packed inode blocks of every inode involved,
      then inode-map and usage-table chunks. It carries [seq], the
      segment the log continues in, and the atomic-batch [more] flag,
      and roll-forward follows it;
    - a hot partial with deferred metadata (a commit flush): data
      blocks only. Its summary entries are authoritative for the
      blocks' new addresses until the inodes reach the log;
    - a cold partial, at the cleaner's relocation head: relocated data
      only, [seq] 0 and the cold flag. It lies outside the roll-forward
      chain and becomes durable only through a checkpoint. Until then
      every survivor stays live in its victim segment, which stays
      Pending (never reused) until that same checkpoint, and the
      survivors' inodes are marked dirty so their new addresses reach
      the log with the next hot metadata flush or the checkpoint.

    {b One writer at a time.} Partials are written under a writer mutex
    ([seg_writing]); a writer parks only in disk I/O while holding it,
    and the partials of one {!log_write} follow one another with no
    park in between. Only this module and {!Lfs_recovery} move the log
    heads ([cur_seg], [cur_off], [next_seg], [cold_seg], [cold_off],
    [write_seq]). *)

type seg_state =
  | Free  (** holds nothing live and may be written *)
  | Current  (** a log head writes it, or will next *)
  | Dirty  (** holds live blocks: a cleaning candidate *)
  | Pending  (** cleaned; Free at the next checkpoint *)

type usage_entry = {
  mutable live : int;
  mutable mtime : float;
      (** usage-entry touch time: moves whenever a write brushes the
          entry. Not an age signal. *)
  mutable last_write : float;
      (** when data was last written into the segment. Cleaner
          relocations inherit the victim's value instead of stamping
          "now", so cold data keeps looking old: this is what the
          cost-benefit policy reads. *)
  mutable cold : bool;
      (** the segment was opened as the cleaner's relocation target and
          holds survivors rather than fresh writes *)
  mutable state : seg_state;
}

type t = {
  disk : Diskset.t;
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  sb : Layout.superblock;
  cache : Cache.t;
  files : Fileops.state;
  imap_addr : int array;
      (** inum -> disk address of its inode block; 0 = none *)
  imap_slot : int array;
  imap_alloc : bool array;
  imap_dirty : bool array;  (** per imap chunk *)
  imap_chunk_addr : int array;
  usage_chunk_addr : int array;
  inode_block_refs : (int, int) Hashtbl.t;
      (** inode-block address -> number of inodes it holds *)
  usage : usage_entry array;
  mutable cur_seg : int;  (** the hot head: segment and offset *)
  mutable cur_off : int;
  mutable next_seg : int;  (** where the hot head goes next *)
  mutable cold_seg : int;
      (** the cleaner's relocation (cold) head: survivors are appended
          here so they never re-mix with hot writes. -1 = no relocation
          segment open. *)
  mutable cold_off : int;
  mutable n_reclaimable : int;
      (** segments in state Free or Pending, kept exact at every state
          change so the cleaner's batch loop does not fold over the
          usage table several times per victim *)
  mutable n_free : int;
      (** Free segments no live snapshot pins ({!free_segments}, read on
          every Vfs call), kept the same way *)
  mutable cleaned_since_cp : int;
  mutable write_seq : int64;  (** [seq] of the next hot partial *)
  mutable cp_seq : int64;
  mutable segs_since_cp : int;
  mutable last_syncer : float;
  mutable seg_writing : bool;
      (** the writer mutex: partial writes mutate the shared
          cursor/usage/imap state and park on disk I/O partway through,
          so two processes must not interleave inside one. Waiters park
          on [seg_write_cond]. *)
  seg_write_cond : Sched.cond;
  stage : bytes;
      (** one segment: every partial is assembled here and its prefix
          written, all under [seg_writing] *)
  mutable in_flight : int * int;  (** see {!in_flight} *)
  mutable pending_cp : bool;
  mutable bg : bool;  (** the syncer and cleaner run as scheduler daemons *)
  mutable snaps : snapshot list;
}

and snapshot = {
  snap_cp : Layout.checkpoint;
  snap_segments : bool array;  (** segments frozen by this snapshot *)
  mutable snap_live : bool;
}

val make_empty :
  Diskset.t -> Clock.t -> Stats.t -> Config.t -> Layout.superblock -> t
(** A file system over the image with superblock [sb]: empty tables,
    every segment Free, the hot head at segment 0 with segment 1 next,
    and cache pressure flushing through {!log_write}. *)

val max_inodes : int

(** {1 Accessors} *)

val block_size : t -> int
val seg_base : t -> int -> int
val seg_of_addr : t -> int -> int
val nsegments : t -> int
val config : t -> Config.t
val clock : t -> Clock.t
val stats : t -> Stats.t
val cache : t -> Cache.t

val free_segments : t -> int
val live_blocks : t -> int -> int
val last_write : t -> int -> float
val segment_cold : t -> int -> bool
val reclaimable_segments : t -> int

val pinned : t -> int -> bool
(** Whether a live snapshot freezes segment [i]. *)

val count_free : t -> int
val count_reclaimable : t -> int
(** The Free-and-unpinned and the Free-or-Pending segments, counted by
    a fold over the usage table. *)

val check_alive : t -> unit
(** @raise Vfs.Crashed after a crash. *)

(** {1 Bookkeeping} *)

val inc_usage : ?age:float -> t -> int -> int -> unit
(** [inc_usage t seg n] counts [n] more live blocks written into [seg],
    which stamps [last_write] with [age] (default now) when that is
    later. *)

val dec_usage : t -> int -> unit
(** One block at this address died. *)

val set_state : t -> int -> seg_state -> unit
(** Change a segment's state, keeping [n_reclaimable] and [n_free]
    exact. Only mount sets states otherwise, from the live counts, and
    it recounts both. *)

val dec_inode_block_ref : t -> int -> unit
(** One inode left the inode block at this address; the block dies
    with its last. *)

val mark_imap_dirty : t -> int -> unit
(** The imap chunk holding this inode number must reach the next
    checkpoint. *)

val iget_opt : ?read:(int -> bytes) -> t -> int -> Inode.t option
(** The inode, through the inode cache; [None] if not allocated or
    never written. A miss reads its inode block and indirect blocks with
    [read] (default: a charged disk read). *)

val iget : t -> int -> Inode.t
(** @raise Vfs.Error [Not_found] where {!iget_opt} gives [None]. *)

val pop_free : t -> int
(** Take the first Free, unpinned segment and make it Current.
    @raise Vfs.Error [No_space] if there is none. *)

val in_flight : t -> int -> bool
(** Whether a partial being written covers this address. Its inodes
    already point there, but a queued read served before the write
    lands returns the platter's old bytes; a reader waits on
    [seg_write_cond] while this holds. *)

(** {1 Writing the log} *)

type ditem = {
  d_inum : int;
  d_lblock : int;
  d_src : [ `Frame of Cache.frame | `Raw of bytes | `Reloc of bytes * int * int ];
      (** a cached frame, logged only if the cache still holds it when
          its partial is written; a copy; or a cleaner survivor: a view
          of the victim (buffer, byte offset of the block) and the
          address it was scanned at, installed only if the block still
          lives there *)
}
(** One data block to log. *)

val dirty_ditems : Cache.frame list -> ditem list

val dirty_inodes : t -> Inode.t list
(** Every dirty cached inode, by inode number. *)

val log_write : ?commit:bool -> t -> ditems:ditem list -> inodes:Inode.t list -> unit
(** Log [ditems] and [inodes] at the hot head. Unless [commit], the
    writable frames of every file involved join the write, so no inode
    reaches disk describing data that is only in memory, and each
    partial carries its data's metadata; [inodes] ride the last
    partial. A [commit] (the commit flush, [Lfs.force_frames]) logs
    only [ditems], with their metadata deferred, as one atomic batch.
    Data is chunked at three quarters of a segment, and a chunk whose
    partial would break {!Layout}'s partial rule is split further: its
    data halved, its inodes spilt into inode-only partials.

    {b What a multi-partial atomic flush promises.} With [commit] the
    partials form one batch: every partial but the last carries [more].
    Across a crash, recovery applies the batch whole if its last
    partial is on disk and sound, and otherwise none of it; no
    checkpoint record falls inside it (see {!checkpoint_record}).

    {b Which frames each writer may write} (DESIGN.md §15): only
    writable ones ({!Cache.writable}: dirty, owned by no transaction).
    - commit flush ([Lfs.force_frames]): its batch, released to Dirty
      first, with deferred metadata and no inodes;
    - syncer, cache-pressure writeback, checkpoint: every writable
      frame; the syncer and the checkpoint write every dirty inode, the
      writeback none;
    - [Lfs.fsync_inum]: the file's writable frames and its inode;
    - cleaner: a live block's frame if writable, else its platter copy,
      and the inodes of what it moved;
    - coalescing: the file's unowned frames, else platter copies.

    Every writer calls it inside a {!Fileops.section}, which is the
    buffer scope that keeps the gathered frames' buffers until their
    copy into the stage (cache.mli). *)

val relocate : t -> age:float -> ditem list -> unit
(** Write cleaner survivors at the cold head, stamped with the victim's
    [age], each partial packed to the rest of its relocation segment so
    that the segment closes full. An item whose block no longer lives
    at the scanned address is dropped. A partial that would need a
    fresh cold segment while the writable reserve is nearly gone goes
    to the hot head instead. *)

val write_tables : t -> imap_chunks:int list -> usage_chunks:int list -> unit
(** Write these inode-map and usage-table chunks as one hot partial.
    @raise Invalid_argument if they do not fit one. *)

val checkpoint_record : t -> Layout.checkpoint
(** Write a checkpoint and return its record: every writable frame and
    every dirty inode ({!log_write}), then one partial with the whole
    usage table, every dirty imap chunk and every inode still dirty,
    then the checkpoint region. Pending segments become Free.

    {b What the record promises.} The usage table counts exactly the
    blocks reachable from the inode map it is written with: every
    inode's data, indirect and double-indirect blocks, each inode block
    once, and the table chunks. Mount trusts these counts
    ({!Lfs_recovery}), so every inode whose blocks moved since it was
    last written reaches the log here, also one whose file has owned
    frames: a commit flush moves blocks with deferred metadata, the
    cleaner moves survivors, and roll-forward starts at this record.
    The checkpoint's first partials park in their disk writes, and
    what runs meanwhile (a truncate or remove, which frees blocks with
    {!dec_usage}; a commit flush or [fsync], which moves them) can
    change an inode the checkpoint already wrote. So the table's
    partial gathers its contents under the writer mutex, every inode
    then dirty included with its file's writable frames, and nothing
    parks from the gathering until it is encoded. Dirty inodes that do
    not fit beside the tables are written first and the gathering is
    redone.

    {b When a checkpoint may be taken relative to an open flush.} The
    record names the hot head after the checkpoint's own partials, and
    a flush's partials follow one another under the writer mutex with
    no park in between, so the record never falls inside an atomic
    batch. That rule is kept. Another is not: a commit's frames are
    writable from {!Cache.release} until its batch is written, and a
    checkpoint that gets the writer mutex first writes them itself, in
    non-atomic partials with their inodes. *)

val checkpoint : t -> unit
(** {!checkpoint_record} without the record. @raise Vfs.Crashed after a
    crash. *)
