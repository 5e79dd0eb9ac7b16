(** The LFS cleaner: victim cleaning, the three cleaning paths (kernel
    batch, user-space, adaptive daemon; DESIGN.md §15), the syncer,
    the maintenance hook every operation runs, and coalescing. It writes
    the log only through {!Lfs_writer}.

    {b When a victim's blocks may be reused.} Nothing writes a segment's
    blocks while any of them is live. The log heads write only Current
    segments, which {!Lfs_writer.pop_free} takes from Free ones; a
    victim becomes Pending only once its live count is zero, and Free
    only at the checkpoint after that. The cleaner relies on this to
    read a victim in place: its survivors are views of the platter, not
    copies, and stay valid across every park until the writer installs
    them. The writer installs an item only if its inode still points at
    the scanned address, so the block is still live there and its bytes
    are the scanned ones. A victim whose summary runs past its segment
    ({!Layout.ends_in_segment}) is refused before any survivor moves. *)

val clean_once : Lfs_writer.t -> bool
(** Clean one victim chosen by the configured policy; [false] if no
    candidate exists. @raise Vfs.Crashed after a crash. *)

val tick : Lfs_writer.t -> unit
(** The maintenance hook run at every operation: when no maintenance
    section is open, the inline syncer (unless it runs as a daemon),
    the foreground cleaner below the low-water mark, and a due
    checkpoint. *)

val start_background : Lfs_writer.t -> unit
(** Run the syncer and the cleaner as daemons on the clock's scheduler
    (no-op without one). *)

val coalesce_file : Lfs_writer.t -> int -> unit
val coalesce_all : Lfs_writer.t -> int
val contiguity : Lfs_writer.t -> int -> float
(** As {!Lfs.coalesce_file}, {!Lfs.coalesce_all} and {!Lfs.contiguity}. *)
