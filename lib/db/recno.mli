(** Fixed-length record files, addressable by record number — the access
    method behind the TPC-B history relation ("records are accessible
    sequentially or by record number").

    Records are packed whole into pages (no record straddles a page
    boundary). Appending is sequential, which on LFS turns the history
    file into a pure log-friendly stream. *)

type t

val attach : Clock.t -> Stats.t -> Config.cpu -> Pager.t -> reclen:int -> t
(** Open the file through the pager; initializes it with the given
    record length if blank.
    @raise Invalid_argument if the stored record length disagrees with
    [reclen], [reclen] exceeds a page, or page 0 holds another access
    method's file. *)

val count : t -> int

val append : t -> bytes -> int
(** Add a record at the end; returns its record number.
    @raise Invalid_argument on a wrong-sized record. *)

val get : t -> int -> bytes
(** @raise Not_found if the record number is out of range. *)

val set : t -> int -> bytes -> unit
(** Overwrite an existing record. *)

val iter : t -> (int -> bytes -> bool) -> unit
(** Sequential scan; stops early when the callback returns [false]. *)
