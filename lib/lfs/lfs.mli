(** The log-structured file system (Rosenblum & Ousterhout, as described
    in Section 2 of the paper).

    All writes append to the current segment: dirty data blocks, the
    indirect blocks and inodes describing them, and a summary block per
    partial write. The inode map (inum → inode location) and the segment
    usage table live in memory and are written into the log at
    checkpoints; the two alternating checkpoint regions anchor recovery,
    which rolls forward over partial segments written after the newest
    checkpoint. The cleaner reclaims space by copying live blocks out of
    victim segments; in the paper's measured system it runs in the kernel
    and locks the files being cleaned (the cause of the throughput gaps
    discussed in Section 5.1), and Section 5.4's user-space variant is
    available via {!Config.fs}[.lfs_user_cleaner].

    Byte-range I/O, inode-number allocation, the namespace and the
    {!Vfs.t} surface are the shared file layer ({!Fileops.Make}). This
    module supplies only what is LFS's own: where blocks go (the log and
    its cleaner, checkpoints and recovery), the page fetch, dirty marking
    (every page write marks its inode), the usage table that takes freed
    blocks, and the inode map that holds inode slots. It also exposes the
    page-frame hooks the embedded transaction manager needs
    ({!get_page}, {!force_frames}, …).

    This module is the facade over three others, each of whose
    interfaces states the invariants the rest rely on: {!Lfs_writer}
    (the state record, the log heads, the partial writer, checkpoints;
    what a partial holds, what an atomic flush promises, when a
    checkpoint may be taken, which frames each writer may write),
    {!Lfs_cleaner} (the cleaning paths, the syncer and coalescing; when
    a victim's blocks may be reused) and {!Lfs_recovery} (mount and
    roll-forward; which segments roll-forward visits). {!Layout} states
    the rule for where a partial's blocks lie. Nothing outside lib/lfs
    names the three. *)

type t

exception Crashed
(** {!Vfs.Crashed}: raised by every operation, and by every {!Vfs.t}
    taken from this file system (snapshot views included), after
    {!crash} until the image is re-mounted. *)

val format :
  Diskset.t -> Clock.t -> Stats.t -> Config.t -> t
(** Write a fresh file system (superblock, empty root directory, initial
    checkpoint) and return it mounted. *)

val mount :
  Diskset.t -> Clock.t -> Stats.t -> Config.t -> t
(** Recover an existing image: load the newest valid checkpoint and its
    inode map and segment usage table, then roll forward through
    segments written after it, adjusting both for what it replays
    ({!Lfs_recovery}). *)

val unmount : t -> unit
(** Flush everything and write a final checkpoint. *)

val crash : t -> unit
(** Simulate a power failure: all volatile state (buffer cache, inode
    cache, in-memory inode map) is discarded. The disk image retains
    exactly the blocks already written; a subsequent {!mount} exercises
    recovery. *)

val vfs : t -> Vfs.t

(** {1 Introspection} *)

val config : t -> Config.t
val clock : t -> Clock.t
val stats : t -> Stats.t
val cache : t -> Cache.t
val free_segments : t -> int
val nsegments : t -> int
val live_blocks : t -> int -> int
(** Live-block count of segment [i], per the usage table. *)

val last_write : t -> int -> float
(** Time data was last written into segment [i] — the cost-benefit
    policy's age signal. Unlike the usage entry's bookkeeping timestamp
    it is preserved across remounts (through the checkpointed usage
    table) and inherited when the cleaner relocates cold survivors. *)

val segment_cold : t -> int -> bool
(** Whether segment [i] was written by the cleaner's relocation (cold)
    log head. Persisted through the checkpointed usage table. *)

val reclaimable_segments : t -> int
(** Free + cleaned-pending segment count, maintained incrementally (the
    cleaner's batch loop and the adaptive daemon read it every pass). *)

val inum_of : t -> string -> int
(** Inode number of a path. @raise Vfs.Error [Not_found]. *)

val is_protected : t -> int -> bool
(** Transaction-protected attribute of a file, by inode number. *)

(** {1 Maintenance} *)

val checkpoint : t -> unit
val sync : t -> unit
val clean_once : t -> bool
(** Clean one victim segment; [false] if no candidate exists. *)

val coalesce_file : t -> int -> unit
(** Rewrite a file's blocks in logical order into fresh segments — the
    "cleaner that selects segments based on coalescing and clustering of
    files" the paper proposes in Section 5.4 to repair sequential-read
    performance after random updates. Runs as an idle-time utility; the
    file is re-laid-out contiguously in the log. *)

val coalesce_all : t -> int
(** Coalesce every regular file, largest first; returns the number of
    files rewritten. *)

val contiguity : t -> int -> float
(** Fraction of a file's adjacent logical blocks that are also adjacent
    on disk (1.0 = perfectly sequential layout). *)

(** {1 Snapshots}

    The paper's closing list of beneficiaries includes "system utilities
    (user registration, backups, undelete, etc.)" — all enabled by the
    no-overwrite log: past file-system states remain on disk until the
    cleaner reclaims them. A snapshot checkpoints the file system, saves
    that checkpoint, and pins every segment that was in use so neither
    the log head nor the cleaner can recycle it. {!snapshot_view} then
    reads the frozen state — including files deleted since — through an
    ordinary read-only {!Vfs.t}.

    Snapshot handles live in memory (a prototype of the mechanism, not a
    persistent backup format): they do not survive a crash, though the
    pinned data trivially does until the next cleaning. *)

type snapshot

val snapshot : t -> snapshot
(** Checkpoint and freeze the current state. Pinned segments are not
    reused until {!release_snapshot}. *)

val release_snapshot : t -> snapshot -> unit
(** Unpin the snapshot's segments (idempotent). *)

val snapshot_view : t -> snapshot -> Vfs.t
(** A read-only view of the file system as it was at the snapshot.
    Mutating operations raise [Vfs.Error (Not_supported, _)]. The view
    lives no longer than its snapshot and its file system: once the
    snapshot is released every view operation raises [Invalid_argument]
    (its segments may already be reused), and once [t] crashes they
    raise {!Crashed}.
    @raise Invalid_argument if the snapshot has been released. *)

val snapshots : t -> int
(** Number of live snapshots. *)

val test_disable_payload_check : bool ref
(** Test-only: make roll-forward trust segment summaries without
    verifying their payload checksum, resurrecting the torn-commit
    vulnerability the checksum prevents. Used by the fault-injection
    suite to prove its oracle detects a broken recovery path. Never set
    outside tests. *)

val check : t -> unit
(** Full-consistency check of the in-memory/on-disk state: the segment
    usage table must match recomputed block reachability, no two live
    blocks may share an address, and every imap entry must point at an
    inode block that contains the inode. Raises [Failure] with a
    description on any violation. For tests and the fsck-style tool. *)

(** {1 Page hooks for the embedded transaction manager}

    These bypass the byte-offset interface and work on whole cached
    pages, which is how the kernel transaction module of Section 4
    manipulates transaction-protected files. *)

val get_page : t -> inum:int -> lblock:int -> Cache.frame
(** The cached frame for a page, reading it from the log on a miss
    (zero-filled if it is a hole or lies past end of file). Under a
    {!Sched} scheduler a miss is serviced through the live disk queue:
    the calling process parks and other processes run during the read. *)

val start_background : t -> unit
(** Detach the periodic syncer and the cleaner from the request path,
    running each as a daemon process on the scheduler attached to this
    file system's clock (no-op without one). [tick] keeps an inline
    cleaner backstop so a write burst between cleaner wakeups cannot
    exhaust the writable reserve. *)

val page_dirty : t -> Cache.frame -> unit
(** Mark a page frame dirty and its inode modified. *)

val extend_to : t -> inum:int -> int -> unit
(** Grow the file's byte size (used when a page write extends it). *)

val force_frames : t -> Cache.frame list -> unit
(** Write exactly these frames (plus the metadata describing them) to the
    log as one or more partial segments — the commit-time flush of
    Section 4.3. *)

val fsync_inum : t -> int -> unit
(** Flush one file's dirty pages and inode. *)
