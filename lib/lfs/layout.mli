(** On-disk layout of the log-structured file system.

    Block 0 is the superblock; blocks 1 and 2 are the two alternating
    checkpoint regions; the rest of the device is divided into fixed-size
    segments. Inside a segment, every partial write ("partial segment")
    starts with a summary block describing the blocks that follow — the
    summary is what lets the cleaner decide liveness and what recovery
    rolls forward over.

    All structures carry a magic number and an additive checksum so that a
    torn or stale block is detected rather than trusted. *)

val superblock_blkno : int
val checkpoint_blknos : int * int
val data_start : int
(** First block of segment 0. *)

val inode_size : int
(** Bytes per packed on-disk inode (256; 16 inodes per 4 KB block). *)

val checksum : bytes -> int
(** Additive 30-bit checksum: the sum of every byte times one plus its
    offset modulo 256, modulo 2{^30}. A structure is summed with its
    checksum field zeroed (the caller zeroes it before calling). The sum
    is taken eight bytes per step; the value is the per-byte definition's
    to the bit, since it is on disk. *)

val checksum_sub : bytes -> int -> int -> int
(** [checksum_sub b off len] is [checksum (Bytes.sub b off len)] without
    the copy; it only reads [b]. @raise Invalid_argument if the range is
    outside [b]. *)

(** {1 Superblock} *)

type superblock = {
  block_size : int;
  nblocks : int;
  segment_blocks : int;
  nsegments : int;
  max_inodes : int;
}

val write_superblock : bytes -> superblock -> unit
val read_superblock : bytes -> superblock
(** @raise Vfs.Error [Invalid] on bad magic or checksum. *)

val nsegments_of : block_size:int -> nblocks:int -> segment_blocks:int -> int
val segment_base : superblock -> int -> int
(** First block number of segment [i]. *)

(** {1 Segment summary} *)

(** What a block inside a partial segment is. The cleaner uses this
    (together with the inode map and inodes) to decide liveness; recovery
    uses it to roll the in-memory state forward. *)
type summary_entry =
  | Data of { inum : int; lblock : int }
  | Inode_block of { inums : int list }  (** packed inodes, in slot order *)
  | Indirect of { inum : int; index : int }
      (** [index]-th single-indirect block of the file *)
  | Double_indirect of { inum : int }
  | Imap_block of { index : int }  (** chunk [index] of the inode map *)
  | Usage_block of { index : int }  (** chunk of the segment usage table *)

type summary = {
  seq : int64;  (** monotone partial-segment sequence number *)
  timestamp : float;
  next_seg : int;  (** where the log continues after this segment *)
  more : bool;
      (** this partial is not the last of an atomic batch: recovery must
          not apply it unless the rest of the batch also made it to disk
          (commit flushes larger than a segment span several partials) *)
  cold : bool;
      (** written by the cleaner's relocation (cold) log head. Cold
          partials are durable only through checkpoints — they are never
          part of the roll-forward chain, carry [seq = 0], and recovery
          must never mistake one for a live continuation of the log *)
  payload_ck : int;
      (** {!checksum} of the payload blocks following the summary — the
          summary's own seal proves nothing about them, and a torn
          multi-block write can persist the summary without its data *)
  entries : summary_entry list;  (** one per following block, in order *)
}

val write_summary : bytes -> summary -> unit

val read_summary : bytes -> summary option
(** [None] if the block is not a valid summary (bad magic or checksum).
    Reads the block only; the summary returned shares no bytes with it. *)

val read_summary_at : bytes -> off:int -> block_size:int -> summary option
(** [read_summary_at run ~off ~block_size] is [read_summary] of the
    [block_size] bytes of [run] from [off], without copying them out:
    the cleaner parses the summaries of a whole segment run in place.
    @raise Vfs.Error [Invalid] if a sealed summary is malformed (an
    unknown entry kind, or an inode table past the block). *)

val write_summary_at : bytes -> off:int -> block_size:int -> summary -> unit
(** [write_summary_at buf ~off ~block_size s] encodes and seals [s] into
    the [block_size] bytes of [buf] from [off], the bytes
    [write_summary] would give a block of its own: the segment writer
    seals a partial's summary in place in its staging buffer.
    @raise Invalid_argument if [s] does not fit its block
    ({!summary_fits}); nothing past the block is written then. *)

val max_summary_entries : block_size:int -> int
(** Entries a summary may hold with a quarter of its block left for
    inode-number tables: what the cleaner packs into a cold partial. *)

(** {1 Partial segments}

    The rule for what a partial holds, which the segment writer, the
    cleaner and roll-forward share. A partial is a summary block and
    one block per summary entry, in entry order. With its summary at
    block [pos], entry [i] is block [pos + 1 + i] ({!entry_block}) and
    the next partial starts at [pos + 1 + n] for [n] entries
    ({!next_partial}); [pos] may count from the disk's start or from the
    segment's. A partial must end inside its segment
    ({!ends_in_segment}), and its summary must fit its block
    ({!summary_fits}). The writer builds no other partial; the cleaner
    refuses a victim whose summary runs past its segment, and
    roll-forward ends the log at one. *)

val entry_block : pos:int -> int -> int
(** [entry_block ~pos i] is the block of entry [i] of the partial whose
    summary is at block [pos]. *)

val next_partial : pos:int -> summary -> int
(** The block where the partial after [s], whose summary is at [pos],
    starts. *)

val ends_in_segment : segment_blocks:int -> pos:int -> int -> bool
(** [ends_in_segment ~segment_blocks ~pos n]: whether a partial of [n]
    entries with its summary at block [pos] of its segment ends inside
    the segment. A partial that ends exactly at the segment's last block
    does. *)

val summary_fits : block_size:int -> entries:int -> inums:int -> bool
(** Whether a summary of [entries] entries whose inode blocks hold
    [inums] inode numbers in all fits one block: a 40-byte header, 9
    bytes per entry and 4 per inode number. *)

(** {1 Checkpoint region} *)

type checkpoint = {
  cp_seq : int64;
  cp_timestamp : float;
  cur_seg : int;
  cur_off : int;  (** next free block within [cur_seg] *)
  cp_next_seg : int;
  next_inum : int;
  write_seq : int64;  (** seq of the next partial segment to be written *)
  imap_addrs : int array;  (** disk address of each imap chunk *)
  usage_addrs : int array;
}

val write_checkpoint : bytes -> checkpoint -> unit
val read_checkpoint : bytes -> checkpoint option

(** {1 Inode map and segment usage table}

    Both tables live in memory and reach the log at checkpoints, one
    block ("chunk") at a time; the checkpoint region lists every chunk's
    address. A chunk holds [block_size / entry_bytes] consecutive
    entries, little-endian, with the tail of the block zero-filled.

    {b Imap entry} (8 bytes), one per inode number:
    - bytes 0..3: u32 address of the inode block holding the inode
      (0 = never written);
    - byte 4: u8 slot of the inode within that block;
    - byte 5: u8 allocated flag (1 = in use);
    - bytes 6..7: zero.

    {b Usage entry} (21 bytes), one per segment:
    - bytes 0..3: u32 live-block count;
    - bytes 4..11: f64 [mtime], the entry's bookkeeping touch time;
    - bytes 12..19: f64 [last_write], when data was last written into
      the segment (the cost-benefit policy's age signal);
    - byte 20: u8 flags, bit 0 = cold (a relocation segment). *)

type imap_entry = { addr : int; slot : int; alloc : bool }
type usage_entry = { live : int; mtime : float; last_write : float; cold : bool }

val imap_per_chunk : block_size:int -> int
(** Imap entries per chunk: inode [inum] lives in chunk
    [inum / imap_per_chunk]. *)

val n_imap_chunks : block_size:int -> max_inodes:int -> int
(** Chunks needed for [max_inodes] imap entries. *)

val n_usage_chunks : block_size:int -> nsegments:int -> int
(** Chunks needed for [nsegments] usage entries. *)

val write_imap_chunk :
  bytes -> off:int -> block_size:int -> chunk:int -> n:int -> (int -> imap_entry) -> unit
(** [write_imap_chunk b ~off ~block_size ~chunk ~n entry] writes chunk
    [chunk] of an [n]-entry inode map over the [block_size] bytes at
    [off] in [b], asking [entry] for each inode number the chunk
    covers. *)

val read_imap_chunk : bytes -> chunk:int -> n:int -> (int -> imap_entry -> unit) -> unit
(** Decode chunk [chunk] of an [n]-entry inode map from block [b],
    handing each inode number and its entry to the callback. *)

val write_usage_chunk :
  bytes -> off:int -> block_size:int -> chunk:int -> n:int -> (int -> usage_entry) -> unit
val read_usage_chunk : bytes -> chunk:int -> n:int -> (int -> usage_entry -> unit) -> unit
(** The same pair for the [n]-segment usage table. *)
