(** The read-optimized, update-in-place file system — the paper's baseline
    (Sprite's conventional FFS-derived file system).

    Blocks are assigned {e permanent} disk addresses when first allocated;
    rewriting a block overwrites the same address. The allocator chases
    contiguity (next-fit from the file's previous block), so sequentially
    written files stay sequential on disk and later random updates do not
    move them — which is exactly why this system wins the SCAN benchmark
    of Section 5.3 and pays seeks during transaction processing.

    Dirty pages are delayed writes: a 30-second syncer flushes them,
    elevator-sorted into the disk queue (Section 5.1). [fsync] forces one
    file synchronously. There is no crash-consistency machinery beyond
    {!fsck}, mirroring the original.

    Byte-range I/O, inode-number allocation, the namespace and the
    {!Vfs.t} surface are the shared file layer ({!Fileops.Make}). This
    module supplies only the hooks that differ: the page fetch, dirty
    marking (a write marks its inode once, after its pages), the bitmap
    that takes freed blocks, the inode table that holds inode slots, and
    the syncer [tick]. *)

type t

exception Crashed
(** {!Vfs.Crashed}: raised by every operation, and by every {!Vfs.t}
    taken from this file system, after {!crash} until the image is
    mounted again. *)

val format : Disk.t -> Clock.t -> Stats.t -> Config.t -> t
val mount : Disk.t -> Clock.t -> Stats.t -> Config.t -> t
(** Reads the superblock, the bitmap and each inode-table block in use
    once, and caches every allocated inode with its indirect blocks.
    The superblock counts the table blocks in use from the first; a
    flush that hands out an inode number past them writes the grown
    count, synchronously, before any of the new table blocks.
    @raise Vfs.Error [Invalid] on a bad magic number or size, or an
    in-use count of 0 or past the end of the table. *)

val crash : t -> unit
(** Discard all volatile state; the disk image keeps only what was
    physically written. *)

val vfs : t -> Vfs.t

val free_blocks : t -> int
val sync : t -> unit

type fsck_report = {
  scanned_inodes : int;
  leaked_blocks : int;  (** marked used but referenced by no inode *)
  cross_allocated : int;  (** referenced by more than one inode *)
  fixed : bool;  (** whether the bitmap was rewritten *)
}

val fsck : t -> fsck_report
(** Rebuild the allocation bitmap from the allocated inodes, reporting
    (and fixing) leaks from an unclean shutdown. It trusts the file
    layer's allocation picture and reads only inodes not cached (none
    after {!mount}): an inode freed but not yet flushed is not scanned,
    and its blocks stay free. *)

val allocated_inodes : t -> int list
(** The allocated inode numbers as the file layer sees them, in
    increasing order: after {!mount}, those of the table slots it
    read. *)

val contiguity : t -> string -> float
(** Fraction of a file's adjacent logical blocks that are also adjacent
    on disk — 1.0 for a perfectly laid-out file. Used by the SCAN
    experiment to show the two systems' layouts diverging. *)
