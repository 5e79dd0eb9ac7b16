(** LFS inodes: the index structure of Section 2.

    On disk an inode is a fixed 256-byte record holding file attributes
    (including the transaction-protected bit of Section 4.1), 12 direct
    block addresses, one single-indirect address and one double-indirect
    address. In memory we additionally materialize the full
    logical-block → disk-address map so that reads, the cleaner's
    liveness test and the segment writer are all array lookups; indirect
    blocks are (re)generated from the map when the inode is written into
    a segment, and only the dirty ones are rewritten. *)

type t = {
  inum : int;
  mutable kind : Vfs.file_kind;
  mutable protected_ : bool;
  mutable size : int;  (** bytes *)
  mutable mtime : float;
  mutable version : int;  (** bumped on truncation/removal *)
  mutable map : int array;  (** logical block -> disk address; 0 = hole *)
  mutable nmap : int;  (** used prefix of [map] *)
  mutable ind_addrs : int array;  (** disk address of each indirect block *)
  mutable dbl_addr : int;
  mutable dirty : bool;  (** the 256-byte inode record needs rewriting *)
  dirty_ind : (int, unit) Hashtbl.t;
      (** indexes of indirect blocks needing rewriting *)
  mutable dbl_dirty : bool;
}

val ndirect : int
(** Direct addresses per inode (12, as in the paper's description). *)

val per_indirect : block_size:int -> int
(** Addresses per indirect block. *)

val create : inum:int -> kind:Vfs.file_kind -> t

val nblocks : t -> int
(** Logical blocks mapped (the used prefix; trailing entries may be 0). *)

val get_addr : t -> int -> int
(** Disk address of logical block [lblock]; 0 for holes/out of range. *)

val set_addr : t -> block_size:int -> int -> int -> unit
(** [set_addr t ~block_size lblock addr] updates the map, growing it as
    needed, and marks the inode and the covering indirect block dirty. *)

val truncate_map : t -> block_size:int -> int -> unit
(** Shrink the map to [n] logical blocks, marking affected metadata
    dirty. *)

val indirect_count : t -> block_size:int -> int
(** Number of indirect blocks the current map requires. *)

val ind_addr : t -> int -> int
(** Disk address of indirect block [idx]; 0 if it has none yet. *)

val set_ind_addr : t -> int -> int -> unit
(** [set_ind_addr t idx addr] records indirect block [idx]'s address,
    growing [ind_addrs] to cover [idx]. *)

val write : t -> bytes -> off:int -> unit
(** Write the 256-byte on-disk record over the bytes at [off] in the
    buffer. *)

val decode : bytes -> int -> t option
(** [decode block off] reads a record at byte offset [off]; [None] if the
    slot is unallocated. The map is sized but unfilled beyond direct
    blocks — the mount code fills it from the indirect blocks. *)

val write_indirect : t -> block_size:int -> int -> bytes -> off:int -> unit
(** Write the [idx]-th indirect block, from the in-memory map, over the
    [block_size] bytes at [off] in the buffer. *)

val decode_indirect : t -> block_size:int -> int -> bytes -> unit
(** Fill the map range covered by indirect block [idx] from disk bytes. *)

val write_double : t -> block_size:int -> bytes -> off:int -> unit
(** Write the double-indirect block (addresses of indirect blocks 1..n-1;
    indirect block 0's address lives in the inode itself) over the
    [block_size] bytes at [off]. *)

val decode_double : t -> block_size:int -> bytes -> unit

val load : block_size:int -> read:(int -> bytes) -> bytes -> int -> t option
(** [load ~block_size ~read block off] decodes the record at [off] in
    [block], then fills the whole map from its double-indirect and
    indirect blocks, fetched with [read addr] (double-indirect first,
    then indirect blocks in index order). [None] for a free slot. The
    record is decoded, every field copied, before the first [read], so
    [block] may be a disk view ([Disk.read_run_view]) that a parked
    [read] lets change. *)

type block_kind = Data_block | Indirect_block | Double_block

val iter_block_addrs : t -> block_size:int -> (block_kind -> int -> int -> unit) -> unit
(** [f kind i addr] for every address the inode holds, holes (0)
    included: data block [i] in logical order, then indirect block [i],
    then the double-indirect block (with [i = 0]) when the map needs
    one. *)

val contiguity : t -> float
(** Fraction of adjacent mapped logical blocks that are also adjacent on
    disk; 1.0 when fewer than two neighbours are mapped. *)
