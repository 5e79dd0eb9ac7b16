(** Hashed access method (the third record format of the 4.4BSD db(3)
    interface the paper's record layer exposes).

    A fixed directory of buckets is chosen at creation; each bucket is a
    page with an overflow chain. This is simpler than db(3)'s extendible
    linear hashing but exercises the same page-access pattern: one page
    probe per lookup when the table is sized sensibly, chains when it is
    not. *)

type t

exception Entry_too_large

val attach : Clock.t -> Stats.t -> Config.cpu -> Pager.t -> buckets:int -> t
(** Open through the pager, creating an empty table with [buckets]
    buckets if the file is blank ([buckets] is then ignored on reopen).
    @raise Invalid_argument if [buckets] is not positive, or if page 0
    holds another access method's file. *)

val find : t -> string -> string option
val insert : t -> string -> string -> unit
val delete : t -> string -> bool
val count : t -> int
val iter : t -> (string -> string -> bool) -> unit
(** Unordered scan over all buckets and chains. *)
