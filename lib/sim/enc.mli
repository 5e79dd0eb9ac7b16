(** Binary encoding helpers for on-disk structures.

    Every persistent structure in the reproduction (inodes, segment
    summaries, checkpoint regions, WAL records, B-tree pages) is laid out
    with these fixed-width big-endian accessors, so that a disk image is a
    well-defined byte string that survives crash-and-remount. *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit

val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit

val get_u32 : bytes -> int -> int
(** Reads 4 bytes as a non-negative OCaml int. *)

val set_u32 : bytes -> int -> int -> unit
(** @raise Invalid_argument if the value does not fit in 32 bits. *)

val get_i64 : bytes -> int -> int64
val set_i64 : bytes -> int -> int64 -> unit

val get_f64 : bytes -> int -> float
val set_f64 : bytes -> int -> float -> unit

val get_string : bytes -> int -> len:int -> string
(** Raw fixed-width read of [len] bytes. *)

val set_string : bytes -> int -> string -> unit

(** {2 Entries}

    A [(key, value)] entry as B-tree leaves and hash buckets lay it out:
    [u16 klen | u16 vlen | key | value]. *)

val entry_size : string -> string -> int
(** On-disk size of the entry [(k, v)]. *)

val set_entry : bytes -> int -> string -> string -> int
(** [set_entry b off k v] writes the entry at [off] and returns the
    offset just past it. *)

val get_entry : bytes -> int -> string * string
(** The entry at an offset; it spans {!entry_size} of the pair. *)
