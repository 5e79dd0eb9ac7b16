(** Structured event trace: a bounded ring of timestamped events keyed by
    simulated time, exported as JSONL (one JSON object per line, fields
    [t], [ev], then the event's attributes).

    Subsystems emit through {!Stats.emit} so tracing costs nothing when
    no trace is attached; when the ring fills, the oldest events are
    dropped (and counted) so a trace always ends at the present. *)

type value = B of bool | I of int | F of float | S of string

type event = { t : float; name : string; attrs : (string * value) list }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65 536 events. *)

val emit : t -> t:float -> string -> (string * value) list -> unit
val length : t -> int
val dropped : t -> int
(** Events overwritten because the ring was full. *)

val to_list : t -> event list
(** Oldest first. *)

val clear : t -> unit

val to_json_line : event -> string
val of_json_line : string -> event option
(** Inverse of {!to_json_line}; [None] on malformed lines. *)

val output : out_channel -> t -> unit
(** Write the whole ring as JSONL. *)
