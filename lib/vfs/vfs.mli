(** File-system interface shared by the log-structured and read-optimized
    file systems.

    The paper's point of comparison is that the {e same} applications (the
    user-level transaction system, TPC-B, the Andrew and Bigfile
    benchmarks) run unchanged on either file system; this record of
    operations is that common system-call surface. A file descriptor is
    simply the file's inode number — the simulation has no per-process
    descriptor table.

    Transaction protection is a file attribute (Section 4): it is set with
    {!field-set_protected} and has an effect only on a file system with an
    embedded transaction manager; others raise [Error (Not_supported, _)]. *)

type fd = int

type file_kind = File | Dir

type stat = { inum : int; size : int; kind : file_kind; protected_ : bool }

type error_code =
  | Not_found
  | Exists
  | Not_dir
  | Is_dir
  | No_space
  | Not_supported
  | Invalid

exception Error of error_code * string

exception Crashed
(** Raised by every operation of a file system, and of every {!t} taken
    from it, once the file system has crashed, until the image is
    mounted again. *)

val error : error_code -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error code fmt ...] raises {!Error} with a formatted message. *)

type t = {
  name : string;  (** "lfs" or "ffs", for reports *)
  block_size : int;
  create : string -> fd;  (** create a regular file; parent must exist *)
  open_file : string -> fd;
  read : fd -> off:int -> len:int -> bytes;
      (** short reads at end-of-file return fewer bytes *)
  read_block : fd -> int -> bytes;
      (** [read_block fd b] is block [b] of the file, which must lie
          wholly inside it, as a view of the cached page rather than a
          copy. It makes the same checks and charges as
          [read fd ~off:(b * block_size) ~len:block_size]. The view is
          read-only and stays valid until the caller next parks (a lock,
          latch or disk wait); the file system never reuses its bytes
          for another block, so they change only where that block is
          written.
          @raise Error [Invalid] if the block is not wholly inside the
          file. *)
  prefetch : (fd * int) list -> unit;
      (** [prefetch blocks] reads the named [(file, block)] pages into
          the file system's cache, as one system call, so that later
          reads of them hit. It skips a block past the end of its file,
          a hole and a page already cached. Of the rest it takes, in the
          order given, only as many as the cache has free frames, so it
          evicts nothing, and it issues their reads concurrently, one
          process each ({!Sched.fork_join}), started in disk-address
          order: each spindle serves its share in ascending order while
          the others work. A caller that lists pages in the order it
          will first read them therefore reads no page twice: every
          fetched page is read before a later miss can need its frame. *)
  write : fd -> off:int -> bytes -> unit;
      (** extends the file if the range ends past the current size *)
  truncate : fd -> int -> unit;
  size : fd -> int;
  fsync : fd -> unit;  (** force the file's dirty blocks to disk *)
  sync : unit -> unit;  (** force all dirty state, including metadata *)
  remove : string -> unit;
  mkdir : string -> unit;
  readdir : string -> (string * file_kind) list;
  exists : string -> bool;
  stat : string -> stat;
  set_protected : string -> bool -> unit;
}

val read_page : t -> fd -> int -> bytes
(** [read_page vfs fd b] is block [b] of the file as one full block:
    {!t.read_block}'s view of the cached page when the block lies wholly
    inside the file, else a fresh block holding the file's bytes from
    [b * block_size] on (a short read at end of file, or nothing past
    it), zero-padded. Either way it is read-only to the caller. *)
